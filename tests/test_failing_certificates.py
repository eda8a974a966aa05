"""One failing certificate per name, pinned byte for byte with its replay verdicts.

Each builder returns a failing certificate, the defective (space, bundle) it
was made on, and a clean one on which its witness holds.  The golden file
holds, per name, the certificate's ``as_dict()`` and ``replay`` on both, as
recorded while every certificate still had a separate replay function.
Regenerate it with ``PYTHONPATH=src python tests/test_failing_certificates.py
tests/golden/failing_certificates.json``.
"""

import json
import os
import sys
from fractions import Fraction

from causalgeo import (CausalSetSpace, DyadicCurve, MinkowskiSpace,
                       build_dyadic_curve, canonical_time_bundle, causet_time_bundle,
                       certify_compatibility, check_anti_lipschitz, check_causal_extension,
                       check_chronology, check_holder, check_metric_axioms, check_realizer,
                       check_reverse_triangle, check_subsequent_bound, cubic_time_bundle,
                       replay, sprinkle_causet)
from causalgeo.core import FAIL, Certificate
from causalgeo.geodesic import check_extension_tail

sys.path.insert(0, os.path.dirname(__file__))
from conftest import TauOverride  # noqa: E402

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "failing_certificates.json")
P, Q = (0.0, 0.0), (2.0, 0.0)


def _diamond(b_time=1):
    return CausalSetSpace([("p", 0), ("a", 1), ("b", b_time), ("q", 2)],
                          [("p", "a", 1), ("p", "b", 1), ("a", "q", 1), ("b", "q", 1)])


def _skewed():
    return CausalSetSpace([("p", 0.0), ("a", 0.2), ("b", 1.8), ("q", 2.0)],
                          [("p", "a", 1), ("p", "b", 1), ("a", "q", 1), ("b", "q", 1)])


def _chain():
    """p -> a -> b -> q: the diamond's a and b made causally related."""
    return CausalSetSpace([("p", 0), ("a", 1), ("b", Fraction(3, 2)), ("q", 2)],
                          [("p", "a", 1), ("a", "b", Fraction(1, 2)), ("b", "q", Fraction(1, 2))])


def _flat():
    mink = MinkowskiSpace(1, window=((-2.0, 2.0), 2.0))
    return mink, canonical_time_bundle(mink)


def _poisoned_flat(depth, param, point):
    mink, bundle = _flat()
    values = dict(build_dyadic_curve(mink, bundle, P, Q, c=0.5, depth=depth).values)
    values[param] = point
    return DyadicCurve(mink, bundle, P, Q, 0.5, depth, "exact", 0.0, values)


def chronology():
    diamond = _diamond()
    corrupted = TauOverride(diamond, {("a", "a"): Fraction(1)})
    return check_chronology(corrupted), (corrupted, None), (diamond, None)


def reverse_triangle():
    diamond = _diamond()
    corrupted = TauOverride(diamond, {("p", "q"): Fraction(1, 2)})
    return check_reverse_triangle(corrupted), (corrupted, None), (diamond, None)


def anti_lipschitz():
    cubic = MinkowskiSpace(1, window=((-0.4, 0.4), 0.4))
    bundle = cubic_time_bundle(cubic, half_width=0.5)
    cert = check_anti_lipschitz(cubic, bundle, sample_budget=300, seed=11)
    return cert, (cubic, bundle), (cubic, canonical_time_bundle(cubic))


def subsequent_dyadic_bound():
    skewed = _skewed()
    bundle = causet_time_bundle(skewed)
    values = dict(build_dyadic_curve(skewed, bundle, "p", "q", c=0.1, depth=1).values)
    values[Fraction(1, 2)] = "b"
    bad = DyadicCurve(skewed, bundle, "p", "q", 0.45, 1, "exact", 0.0, values)
    diamond = _diamond()
    return check_subsequent_bound(bad), (skewed, bundle), (diamond, causet_time_bundle(diamond))


def holder():
    bad = _poisoned_flat(4, Fraction(1, 16), (0.7, 0.0))
    # Cubing the time of the jump brings its ratio under the constant 8.
    return (check_holder(bad), (bad.space, bad.bundle),
            (bad.space, cubic_time_bundle(bad.space)))


def causal_extension():
    # Stable truncations of depth 3: p on (0, 1/4), a on (1/4, 1/2), b on
    # (1/2, 1); a and b are unrelated in the diamond.
    diamond = _diamond()
    bundle = causet_time_bundle(diamond)
    bad = DyadicCurve(diamond, bundle, "p", "q", 0.5, 3, "exact", 0.0,
                      ["p", "p", "a", "a", "b", "b", "b", "b", "q"])
    chain = _chain()
    return (check_causal_extension(bad, sample_budget=100, seed=8), (diamond, bundle),
            (chain, causet_time_bundle(chain)))


def realizer():
    bad = _poisoned_flat(6, Fraction(21, 64), (21 / 32, 5.0))
    cert = check_realizer(bad, sample_budget=300, seed=8)
    _, g1, g2, _, lo, hi = cert.witness
    # A backend on which the witness pair has the speed the curve promises.
    clean = TauOverride(bad.space, {(g1, g2): (lo + hi) / 2})
    return cert, (bad.space, bad.bundle), (clean, bad.bundle)


def extension_tail():
    bad = _poisoned_flat(6, Fraction(1, 64), (0.5, 0.0))
    cert = check_extension_tail(bad, sample_budget=200, seed=8)
    return cert, (bad.space, bad.bundle), (bad.space, cubic_time_bundle(bad.space))


def compatibility():
    skewed = _skewed()
    bundle = causet_time_bundle(skewed)
    cert = certify_compatibility(skewed, bundle, c=0.11, epsilon_hat=0.0, sample_budget=64)
    diamond = _diamond()
    return cert, (skewed, bundle), (diamond, causet_time_bundle(diamond))


def metric_axioms():
    cubic = MinkowskiSpace(1, window=((-0.4, 0.4), 0.4))
    bundle = cubic_time_bundle(cubic, half_width=0.5)
    cert = check_metric_axioms(cubic, bundle, sample_budget=32, seed=0, tol=1e-7,
                               extra_pairs=[((0.0, 0.0), (0.0, 1e-4))])
    return cert, (cubic, bundle), (cubic, canonical_time_bundle(cubic))


BUILDERS = {fn.__name__: fn for fn in (
    chronology, reverse_triangle, anti_lipschitz, subsequent_dyadic_bound, holder,
    causal_extension, realizer, extension_tail, compatibility, metric_axioms)}


def record(name):
    cert, defective, clean = BUILDERS[name]()
    return {"certificate": cert.as_dict(),
            "replay_defective": replay(cert, *defective),
            "replay_clean": replay(cert, *clean)}


def golden_text():
    return json.dumps({name: record(name) for name in sorted(BUILDERS)},
                      indent=2, sort_keys=True) + "\n"


class TestFailingCertificateGoldens:
    def test_every_predicate_has_a_golden(self):
        from causalgeo.core import PREDICATES
        with open(GOLDEN, encoding="utf-8") as fh:
            recorded = json.load(fh)
        assert sorted(PREDICATES) == sorted(BUILDERS) == sorted(recorded)

    def test_certificates_and_replays_match_golden(self):
        with open(GOLDEN, encoding="utf-8") as fh:
            assert golden_text() == fh.read()


class TestReplayExactness:
    def test_exact_triangle_does_not_replay_as_violated(self):
        # Exact excess 0 on the density-100 sprinkle: d(v021, v057) equals
        # d(v021, v037) + d(v037, v057).  Adding the stored float tolerance 0.0
        # to the exact sum used to round it and report a violation.
        space = sprinkle_causet(((0.0, 0.0), (1.0, 0.0)), 100, 42)
        cert = Certificate("metric_axioms", FAIL, 0.0, 1, 42,
                           ("triangle", "v021", "v037", "v057", Fraction(0)))
        assert not replay(cert, space, causet_time_bundle(space))


if __name__ == "__main__":
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        fh.write(golden_text())
