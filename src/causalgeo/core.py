"""Core contracts: causal spaces, time functions, curves, certificates.

Everything in the toolkit programs against the :class:`Space` interface: a
point universe with a causal relation ``<=``, a chronological relation
``<<``, and a time separation ``tau`` returning a nonnegative extended real
(``math.inf`` is the dedicated infinity value).  A :class:`TimeFunctionBundle`
attaches a generalized time function together with its anti-Lipschitz
witness neighbourhoods, and :class:`PiecewiseCausalCurve` models zigzags of
future- and past-directed causal segments.

Sampled checks are seeded-deterministic and report a :class:`Certificate`
whose fail witnesses can be replayed through :func:`replay`.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import NotComplete, SegmentNotCausal, WitnessMissing

DEFAULT_TOL = 1e-9
DEFAULT_SEED = 0

FUTURE = "future"
PAST = "past"


def make_rng(seed):
    return np.random.default_rng(seed)


class Space(ABC):
    """A point universe with causal structure and time separation.

    Implementations must keep all state immutable after construction; every
    query below is pure, so sampled checks may be evaluated in parallel and
    merged deterministically.
    """

    name = "space"
    is_discrete = False
    is_minkowski_like = False

    @abstractmethod
    def causal_le(self, x, y) -> bool:
        """Causal relation: x can reach y along a causal curve (reflexive)."""

    @abstractmethod
    def chronological(self, x, y) -> bool:
        """Chronological relation: x reaches y along a timelike curve."""

    @abstractmethod
    def tau(self, x, y):
        """Time separation: nonnegative, 0 when not chronologically related."""

    def causal_lt(self, x, y) -> bool:
        """Strict causal relation, derived as causal and not equal."""
        return x != y and self.causal_le(x, y)

    def contains(self, x) -> bool:
        """Universe membership (backends with removed points override)."""
        return True

    def background_distance(self, x, y) -> float:
        """Optional background metric used only for topology checks."""
        raise NotImplementedError(f"{self.name} has no background metric")

    def limit_point(self, points: Sequence):
        """Map a (certified) Cauchy sequence of points to its limit.

        Callers are responsible for certifying Cauchy-ness (e.g. through a
        Hölder tail bound) before invoking this partial operation.
        """
        raise NotComplete(f"{self.name} has no limit operation")

    def interpolate(self, x, y, s: float):
        """Point a fraction ``s`` of the way along the segment x -> y."""
        raise NotImplementedError(f"{self.name} has no interpolation")

    def points(self) -> Sequence:
        """Finite enumeration of the universe (discrete backends only)."""
        raise NotImplementedError(f"{self.name} is not finite")

    @abstractmethod
    def sample_points(self, rng, count: int) -> list:
        """Seeded-deterministic point sample."""

    # Generic rejection samplers; concrete backends override with
    # constructive versions for efficiency.

    def sample_causal_pairs(self, rng, count: int) -> list:
        return self._reject_pairs(rng, count, self.causal_le)

    def sample_chronological_pairs(self, rng, count: int) -> list:
        return self._reject_pairs(rng, count, self.chronological)

    def sample_causal_chains(self, rng, count: int) -> list:
        """Sampled triples x <= y <= z."""
        out = []
        attempts = 0
        while len(out) < count and attempts < 2000 * count:
            x, y, z = self.sample_points(rng, 3)
            attempts += 1
            if self.causal_le(x, y) and self.causal_le(y, z):
                out.append((x, y, z))
        if len(out) < count:
            raise RuntimeError("chain sampling budget exhausted")
        return out

    def _reject_pairs(self, rng, count, predicate):
        out = []
        attempts = 0
        while len(out) < count and attempts < 2000 * count:
            x, y = self.sample_points(rng, 2)
            attempts += 1
            if predicate(x, y):
                out.append((x, y))
            elif predicate(y, x):
                out.append((y, x))
        if len(out) < count:
            raise RuntimeError("pair sampling budget exhausted")
        return out


@dataclass(frozen=True)
class AntiLipschitzWitness:
    """A neighbourhood descriptor with its local comparison metric.

    The certified inequality on a witness is ``metric(x, y) <= T(y) - T(x)``
    for causal pairs x <= y inside the neighbourhood: the time function must
    grow at least as fast as the witness metric, which is what makes the
    null distance definite.
    """

    label: str
    contains: Callable
    metric: Callable


class TimeFunctionBundle:
    """A generalized time function on a space plus anti-Lipschitz witnesses."""

    def __init__(self, space: Space, time: Callable, witnesses: Iterable[AntiLipschitzWitness],
                 name: str = "T", canonical_minkowski: bool = False):
        self.space = space
        self._time = time
        self.witnesses = tuple(witnesses)
        self.name = name
        # True only for the coordinate time function on a flat backend; the
        # analytic null-distance fast path is gated on this flag.
        self.canonical_minkowski = canonical_minkowski

    def time(self, x):
        return self._time(x)

    def witness_for(self, x):
        for w in self.witnesses:
            if w.contains(x):
                return w
        return None

    def common_witness(self, x, y):
        for w in self.witnesses:
            if w.contains(x) and w.contains(y):
                return w
        return None


@dataclass(frozen=True)
class PiecewiseCausalCurve:
    """Finitely many causal segments with per-segment time orientation.

    ``points`` are the segment joints; segment ``i`` joins ``points[i]`` to
    ``points[i+1]`` and is future- or past-directed according to
    ``orientations[i]``.  Breakpoints default to a uniform partition of
    [0, 1].  Consecutive segments share endpoints by construction.
    """

    space: Space
    points: tuple
    orientations: tuple
    breakpoints: tuple = None

    def __post_init__(self):
        pts = tuple(self.points)
        ors = tuple(self.orientations)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "orientations", ors)
        if len(ors) != max(len(pts) - 1, 0):
            raise ValueError("need one orientation per segment")
        if any(o not in (FUTURE, PAST) for o in ors):
            raise ValueError("orientations must be 'future' or 'past'")
        if self.breakpoints is None:
            n = len(pts)
            bps = (0.0,) if n == 1 else tuple(i / (n - 1) for i in range(n))
            object.__setattr__(self, "breakpoints", bps)
        else:
            bps = tuple(float(b) for b in self.breakpoints)
            if len(bps) != len(pts):
                raise ValueError("need one breakpoint per joint")
            if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])):
                raise ValueError("breakpoints must be strictly increasing")
            object.__setattr__(self, "breakpoints", bps)

    @classmethod
    def future_chain(cls, space, points, breakpoints=None):
        pts = tuple(points)
        return cls(space, pts, (FUTURE,) * max(len(pts) - 1, 0), breakpoints)

    @property
    def segment_count(self):
        return len(self.orientations)

    @property
    def is_future_causal(self):
        return all(o == FUTURE for o in self.orientations)

    def validate(self):
        """Raise SegmentNotCausal on the first segment violating its orientation."""
        for i, o in enumerate(self.orientations):
            a, b = self.points[i], self.points[i + 1]
            ok = self.space.causal_le(a, b) if o == FUTURE else self.space.causal_le(b, a)
            if not ok:
                raise SegmentNotCausal(i, a, b, o)

    def tau_length(self):
        """Time-separation length: sum of tau over consecutive joints.

        Only defined for future-directed causal curves.
        """
        if not self.is_future_causal:
            raise ValueError("tau length is only defined for future-directed curves")
        self.validate()
        return sum((self.space.tau(a, b) for a, b in zip(self.points, self.points[1:])), 0)

    def cumulative_tau(self):
        acc = [0]
        for a, b in zip(self.points, self.points[1:]):
            acc.append(acc[-1] + self.space.tau(a, b))
        return acc


PASS = "pass"
FAIL = "fail"


@dataclass(frozen=True)
class Certificate:
    """Machine-checkable report for one hypothesis or conclusion.

    A failing certificate always carries a witness tuple that can be
    replayed deterministically through :func:`replay`.
    """

    name: str
    verdict: str
    tolerance: float
    samples_checked: int
    seed: int
    witness: tuple = None
    data: dict = field(default_factory=dict)

    @property
    def passed(self):
        return self.verdict == PASS

    def as_dict(self):
        return {
            "name": self.name,
            "verdict": self.verdict,
            "tolerance": float(self.tolerance),
            "samples_checked": int(self.samples_checked),
            "seed": self.seed,
            "witness": jsonable(self.witness),
            "data": jsonable(self.data),
        }


def jsonable(value):
    """Recursively convert report payloads to JSON-encodable values."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return str(value)


_REPLAYERS = {}


def register_replay(name):
    def wrap(fn):
        _REPLAYERS[name] = fn
        return fn
    return wrap


def replay(certificate: Certificate, space: Space, bundle: TimeFunctionBundle = None) -> bool:
    """Re-run a failing certificate's predicate on its witness.

    Returns True when the recorded defect reproduces.
    """
    if certificate.passed:
        raise ValueError("replay is defined for failing certificates")
    try:
        fn = _REPLAYERS[certificate.name]
    except KeyError:
        raise ValueError(f"no replay predicate registered for {certificate.name!r}")
    return fn(space, bundle, certificate)


def resolve_tol(space: Space, tol):
    """Default tolerance policy: exact on discrete backends, 1e-9 otherwise."""
    if tol is not None:
        return tol
    return 0 if space.is_discrete else DEFAULT_TOL


def _sorted_witness(violations):
    return sorted(violations, key=lambda w: tuple(map(str, w)))[0]


def check_chronology(space: Space, sample_budget: int = 256, seed: int = DEFAULT_SEED,
                     tol=None) -> Certificate:
    """Certify tau(x, x) = 0 on every sampled point (all points when finite)."""
    tol = resolve_tol(space, tol)
    if space.is_discrete:
        pts = list(space.points())
    else:
        pts = space.sample_points(make_rng(seed), sample_budget)
    violations = []
    for x in pts:
        diag = space.tau(x, x)
        if diag > tol:
            violations.append((x, diag))
    verdict = PASS if not violations else FAIL
    witness = None if not violations else _sorted_witness(violations)
    return Certificate("chronology", verdict, float(tol), len(pts), seed, witness,
                       {"violations": len(violations)})


@register_replay("chronology")
def _replay_chronology(space, bundle, cert):
    x, _ = cert.witness
    return space.tau(x, x) > cert.tolerance


def check_reverse_triangle(space: Space, sample_budget: int = 256, seed: int = DEFAULT_SEED,
                           tol=None) -> Certificate:
    """Certify tau(x,z) >= tau(x,y) + tau(y,z) on sampled chains x <= y <= z."""
    tol = resolve_tol(space, tol)
    chains = _causal_chains(space, sample_budget, seed)
    violations = []
    for x, y, z in chains:
        whole = space.tau(x, z)
        if whole == math.inf:
            continue
        gap = (space.tau(x, y) + space.tau(y, z)) - whole
        if gap > tol:
            violations.append((x, y, z, gap))
    verdict = PASS if not violations else FAIL
    witness = None if not violations else _sorted_witness(violations)
    return Certificate("reverse_triangle", verdict, float(tol), len(chains), seed, witness,
                       {"violations": len(violations)})


@register_replay("reverse_triangle")
def _replay_reverse_triangle(space, bundle, cert):
    x, y, z, _ = cert.witness
    gap = (space.tau(x, y) + space.tau(y, z)) - space.tau(x, z)
    return gap > cert.tolerance


def _causal_chains(space, sample_budget, seed):
    if space.is_discrete and len(space.points()) ** 3 <= 8000:
        return list(space.causal_chains())
    return space.sample_causal_chains(make_rng(seed), sample_budget)


def check_anti_lipschitz(space: Space, bundle: TimeFunctionBundle, sample_budget: int = 256,
                         seed: int = DEFAULT_SEED, tol=None) -> Certificate:
    """Certify d_U(x, y) <= T(y) - T(x) on sampled causal pairs inside witnesses.

    Raises WitnessMissing when a sampled point has no neighbourhood
    descriptor at all.  Pairs that do not fit inside a single witness are
    skipped (the property is local).
    """
    tol = resolve_tol(space, tol)
    pairs = space.sample_causal_pairs(make_rng(seed), sample_budget)
    violations = []
    checked = 0
    for x, y in pairs:
        if bundle.witness_for(x) is None:
            raise WitnessMissing(f"no anti-Lipschitz witness covers {x}")
        w = bundle.common_witness(x, y)
        if w is None:
            continue
        checked += 1
        gap = w.metric(x, y) - (bundle.time(y) - bundle.time(x))
        if gap > tol:
            violations.append((x, y, gap))
    verdict = PASS if not violations else FAIL
    witness = None if not violations else _sorted_witness(violations)
    return Certificate("anti_lipschitz", verdict, float(tol), checked, seed, witness,
                       {"violations": len(violations)})


@register_replay("anti_lipschitz")
def _replay_anti_lipschitz(space, bundle, cert):
    x, y, _ = cert.witness
    w = bundle.common_witness(x, y)
    if w is None:
        return False
    return w.metric(x, y) - (bundle.time(y) - bundle.time(x)) > cert.tolerance
