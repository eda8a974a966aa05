"""causalgeo: null distances, tau-midpoints and dyadic geodesic synthesis
on desk-scale causal-space backends, with machine-checkable certificates."""

__version__ = "0.1.0"

from .core import (AntiLipschitzWitness, Certificate, FlatTimeBundle, PiecewiseCausalCurve,
                   Space, TimeFunctionBundle, check_anti_lipschitz,
                   check_chronology, check_reverse_triangle, replay)
from .errors import CausalGeoError
from .geodesic import (DyadicCurve, HolderCertificate, build_dyadic_curve,
                       check_causal_extension, check_holder, check_realizer,
                       check_subsequent_bound, extend_curve, synthesize_geodesic)
from .midpoints import (LensStrip, MidpointQuery, approximate_midpoint_from_curve,
                        certify_compatibility, find_midpoint, is_eps_tau_midpoint,
                        lens_in_strip_epsilon, midpoint_from_realizer)
from .nulldist import (NullDistanceResult, NullLengthValue, check_metric_axioms,
                       null_distance, null_distance_oracle, null_length)
from .spaces import (CausalSetSpace, MinkowskiSpace, PuncturedMinkowski,
                     canonical_time_bundle, causet_time_bundle, cubic_time_bundle,
                     load_causet_csv, load_causet_json, save_causet_csv,
                     save_causet_json, sprinkle_causet)

__all__ = [name for name in dir() if not name.startswith("_")]
