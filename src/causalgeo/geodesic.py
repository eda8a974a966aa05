"""Dyadic geodesic synthesis and its quantitative certificates.

Starting from a chronological pair, a curve is defined on the dyadic
rationals of [0, 1] by repeated midpoint insertion: the value at
``(2k+1)/2^(n+1)`` is a midpoint of the stored values at ``k/2^n`` and
``(k+1)/2^n``, constrained to the strip of the compatibility constant c.
Exact mode inserts exact midpoints; approximate mode inserts
``eps/4^n``-midpoints at level n, so adjacent level-n values keep time
separation above ``(tau(p,q) - eps) / 2^n``.

The checkers certify, on the stored grid and on sampled real parameters:

* the subsequent-dyadic bound ``dT <= (1-c)^n (T(q) - T(p))``,
* Hölder continuity with exponent ``alpha = -log2(1-c)`` and constant
  ``K = 2 (T(q)-T(p)) / c``,
* causal ordering of the continuous extension, and
* the (approximate) constant-speed realizer property with the sandwich
  slack ``2 * 2^-depth`` inherited from truncating parameters to depth.

A curve of depth D stores one list of ``2^D + 1`` points: the dyadic
``k/2^n`` lives at index ``i = k * 2^(D-n)``, so level n is the stride
``2^(D-n)`` of that list and every walk over the curve is integer index
arithmetic.  Exact ``Fraction`` parameters appear only at the API edge
(``point_at``, ``params``, ``adjacent_pairs``, the ``values`` view,
``from_dict`` and the parameters given to ``extend_curve``); no
floating-point parameter ever selects a point.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction

from .core import (Certificate, DEFAULT_SEED, FAIL, PASS, Space,
                   TimeFunctionBundle, make_rng, register_replay, resolve_tol)
from .errors import (CauchyBudget, CausalGeoError, MidpointUnavailable,
                     NotChronological)
from .midpoints import MidpointQuery, find_midpoint
from .spaces import CausalSetSpace

EXACT = "exact"
APPROXIMATE = "approximate"
NULL = "null"


@dataclass(frozen=True)
class DyadicCurve:
    """A map from the dyadic rationals of depth ``depth`` in [0, 1] to points.

    ``points`` holds the ``2^depth + 1`` stored points, the one at ``k/2^n``
    at index ``k * 2^(depth-n)``.  The constructor also accepts a mapping
    from every such dyadic (as a ``Fraction``) to its point.  The curve
    keeps references to its space and time-function bundle so checkers and
    the continuous extension need no extra context.
    """

    space: Space
    bundle: TimeFunctionBundle
    p: object
    q: object
    c: float
    depth: int
    mode: str
    epsilon: float
    points: list = field(repr=False)

    def __post_init__(self):
        if isinstance(self.points, Mapping):
            if len(self.points) != (1 << self.depth) + 1:
                raise ValueError(f"a depth-{self.depth} curve stores every dyadic "
                                 f"k/2^{self.depth}, got {len(self.points)} points")
            object.__setattr__(self, "points", [self.points[fr] for fr in self.params()])

    @property
    def values(self):
        """Read-only view of the stored points keyed by exact dyadic ``Fraction``."""
        return _DyadicValues(self)

    def params(self):
        denom = 1 << self.depth
        return [Fraction(i, denom) for i in range(denom + 1)]

    def point_at(self, param: Fraction):
        fr = Fraction(param)
        num, den = fr.numerator, fr.denominator
        if den & (den - 1) or den > (1 << self.depth) or not 0 <= num <= den:
            raise KeyError(param)
        return self.points[num << (self.depth - (den.bit_length() - 1))]

    def adjacent_pairs(self, level: int):
        denom = 1 << level
        for k in range(denom):
            yield Fraction(k, denom), Fraction(k + 1, denom)

    def endpoint_time_gap(self):
        return self.bundle.time(self.q) - self.bundle.time(self.p)

    def holder_exponent(self):
        return -math.log2(1 - self.c) if self.c < 1 else 1.0

    def holder_constant(self):
        return 2 * float(self.endpoint_time_gap()) / self.c

    def as_dict(self):
        entries = []
        depth = self.depth
        for i, point in enumerate(self.points):
            # k/2^n in lowest terms: strip the trailing zero bits of i.
            shift = (i & -i).bit_length() - 1 if i else depth
            entries.append({"k": i >> shift, "n": depth - shift,
                            "point": _encode_point(point)})
        return {
            "p": _encode_point(self.p),
            "q": _encode_point(self.q),
            "c": self.c,
            "depth": self.depth,
            "mode": self.mode,
            "epsilon": self.epsilon,
            "values": entries,
        }

    @classmethod
    def from_dict(cls, space, bundle, payload):
        values = {}
        for entry in payload["values"]:
            fr = Fraction(entry["k"], 1 << entry["n"])
            values[fr] = _decode_point(space, entry["point"])
        return cls(space, bundle, _decode_point(space, payload["p"]),
                   _decode_point(space, payload["q"]), payload["c"],
                   payload["depth"], payload["mode"], payload["epsilon"], values)


class _DyadicValues(Mapping):
    """``DyadicCurve.values``: the stored points keyed by ``Fraction``, on demand."""

    def __init__(self, curve):
        self._curve = curve

    def __getitem__(self, param):
        return self._curve.point_at(param)

    def __iter__(self):
        return iter(self._curve.params())

    def __len__(self):
        return len(self._curve.points)


def _encode_point(point):
    if isinstance(point, tuple):
        return [float(c) for c in point]
    return str(point)


def _decode_point(space, encoded):
    if isinstance(encoded, list):
        return tuple(encoded)
    return encoded


def build_dyadic_curve(space: Space, bundle: TimeFunctionBundle, p, q, c: float,
                       depth: int, mode: str = EXACT, epsilon: float = 0.0,
                       tol=None) -> DyadicCurve:
    """Populate all dyadics up to ``depth`` by strip-compatible midpoint insertion.

    Raises MidpointUnavailable(level, pair) as soon as the midpoint oracle
    returns no admissible point, surfacing which hypothesis of the
    construction failed.  Branches whose endpoints have collapsed to a
    single point (possible on finite backends) stop refining.
    """
    if not 0 < c <= 0.5:
        raise ValueError("compatibility constant must lie in (0, 1/2]")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if mode not in (EXACT, APPROXIMATE):
        raise ValueError(f"unknown mode {mode!r}")
    if not space.chronological(p, q):
        raise NotChronological(f"{p} and {q} are not chronologically related")
    tau_pq = space.tau(p, q)
    if mode == APPROXIMATE:
        if not 0 < epsilon < tau_pq:
            raise ValueError("approximate mode needs 0 < epsilon < tau(p, q)")
    else:
        epsilon = 0.0

    denom = 1 << depth
    points = [None] * (denom + 1)
    points[0], points[denom] = p, q
    for level in range(1, depth + 1):
        step = denom >> level
        level_eps = 0.0 if mode == EXACT else epsilon / (4 ** level)
        for i in range(step, denom, 2 * step):
            x, z = points[i - step], points[i + step]
            if x == z:
                points[i] = x
                continue
            query = MidpointQuery(p=x, q=z, epsilon=level_eps, c=c)
            try:
                m = find_midpoint(space, bundle, query, tol=tol)
            except NotChronological:
                raise MidpointUnavailable(
                    level, (x, z), "parents lost chronological order") from None
            if m is None:
                kind = "exact" if mode == EXACT else f"eps={level_eps:g}"
                raise MidpointUnavailable(
                    level, (x, z),
                    f"no {kind} midpoint in the strip for c={c}; the backend lacks "
                    "strip-compatible midpoints for this pair")
            points[i] = m

    curve = DyadicCurve(space, bundle, p, q, c, depth, mode, epsilon, points)
    _assert_level_invariants(curve, tol)
    return curve


def _assert_level_invariants(curve, tol):
    space = curve.space
    tol = resolve_tol(space, tol)
    tau_pq = space.tau(curve.p, curve.q)
    exact = curve.mode == EXACT
    for level in range(1, curve.depth + 1):
        target = tau_pq / (1 << level)
        floor = (tau_pq - curve.epsilon) / (1 << level)
        pts = curve.points[::1 << (curve.depth - level)]
        for k, (a, b) in enumerate(zip(pts, pts[1:])):
            if a == b:
                continue
            t = space.tau(a, b)
            if exact and abs(t - target) > 4 * tol * (1 + float(tau_pq)):
                problem = f"drifted from {float(target)}"
            elif not exact and not t > floor - tol:
                problem = f"below the level floor {float(floor)}"
            else:
                continue
            a_param, b_param = Fraction(k, 1 << level), Fraction(k + 1, 1 << level)
            raise CausalGeoError(
                f"level {level} pair {a_param}..{b_param}: tau {float(t)} {problem}")


@dataclass(frozen=True)
class HolderCertificate(Certificate):
    """Certificate for Hölder continuity with the construction's constant."""

    alpha: float = 0.0
    constant: float = 0.0
    max_ratio: float = 0.0

    def as_dict(self):
        out = super().as_dict()
        out.update(alpha=self.alpha, constant=self.constant, max_ratio=self.max_ratio)
        return out


def check_subsequent_bound(curve: DyadicCurve, bundle: TimeFunctionBundle = None,
                           tol=None) -> Certificate:
    """Time gaps of adjacent stored dyadics against the geometric level bound.

    Adjacent stored dyadics are causally related, so their null distance is
    exactly the time gap; the certificate checks that gap (and hence the
    null distance) never exceeds ``(1-c)^n (T(q) - T(p))``.
    """
    bundle = bundle or curve.bundle
    tol = resolve_tol(curve.space, tol)
    gap_total = float(bundle.time(curve.q) - bundle.time(curve.p))
    times = [bundle.time(x) for x in curve.points]
    violations = []
    max_excess = -math.inf
    for level in range(1, curve.depth + 1):
        bound = (1 - curve.c) ** level * gap_total
        step = 1 << (curve.depth - level)
        level_times = times[::step]
        gaps = [float(b - a) for a, b in zip(level_times, level_times[1:])]
        # Subtracting a constant preserves order in floats, so the largest
        # excess is the largest gap minus the bound.
        widest = max(gaps)
        max_excess = max(max_excess, widest - bound)
        if widest > bound + tol or min(gaps) < -tol:
            for k, gap in enumerate(gaps):
                if gap > bound + tol or gap < -tol:
                    violations.append((level, curve.points[k * step],
                                       curve.points[(k + 1) * step], gap, bound))
    samples = sum(1 << level for level in range(1, curve.depth + 1))
    verdict = PASS if not violations else FAIL
    witness = None if not violations else violations[0]
    return Certificate("subsequent_dyadic_bound", verdict, float(tol), samples,
                       DEFAULT_SEED, witness,
                       {"max_excess": max_excess if samples else None, "c": curve.c})


@register_replay("subsequent_dyadic_bound")
def _replay_subsequent(space, bundle, cert):
    _, a, b, _, bound = cert.witness
    gap = float(bundle.time(b) - bundle.time(a))
    return gap > bound + cert.tolerance or gap < -cert.tolerance


def check_holder(curve: DyadicCurve, bundle: TimeFunctionBundle = None,
                 sample_budget: int = 2000, seed: int = DEFAULT_SEED,
                 tol=None) -> HolderCertificate:
    """Max observed d_T ratio over |t - t'|^alpha against the constant K.

    Stored dyadics with t < t' are chronologically ordered, so the null
    distance equals the time gap and the ratio is computed directly.
    """
    bundle = bundle or curve.bundle
    tol_f = float(resolve_tol(curve.space, tol)) or 1e-12
    alpha = curve.holder_exponent()
    constant = curve.holder_constant()
    n = len(curve.points)
    denom = n - 1
    total_pairs = n * (n - 1) // 2
    if total_pairs <= sample_budget:
        index_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    else:
        rng = make_rng(seed)
        index_pairs = []
        for _ in range(sample_budget):
            i, j = sorted(rng.choice(n, size=2, replace=False))
            index_pairs.append((int(i), int(j)))
    max_ratio = 0.0
    worst = None
    for i, j in index_pairs:
        a, b = curve.points[i], curve.points[j]
        gap = float(bundle.time(b) - bundle.time(a))
        dt = (j - i) / denom
        ratio = gap / dt ** alpha
        if ratio > max_ratio:
            max_ratio = ratio
            worst = (a, b, dt, ratio)
    verdict = PASS if max_ratio <= constant + tol_f else FAIL
    witness = None if verdict == PASS else worst
    return HolderCertificate("holder", verdict, tol_f, len(index_pairs), seed, witness,
                             {"slack": constant - max_ratio},
                             alpha=alpha, constant=constant, max_ratio=max_ratio)


@register_replay("holder")
def _replay_holder(space, bundle, cert):
    a, b, dt, _ = cert.witness
    ratio = float(bundle.time(b) - bundle.time(a)) / dt ** cert.alpha
    return ratio > cert.constant + cert.tolerance


def extend_curve(curve: DyadicCurve, t, tol=None):
    """Evaluate the continuous extension at a parameter in [0, 1].

    Dyadic parameters stored in the curve are returned exactly.  Other
    parameters are evaluated as the backend limit of the points at the
    binary truncations of t; the Hölder tail bound certifies Cauchy-ness
    first.  With an explicit ``tol``, CauchyBudget is raised when the tail
    bound at the stored depth exceeds it.
    """
    fr = Fraction(t)
    if not 0 <= fr <= 1:
        raise ValueError("parameter must lie in [0, 1]")
    stored = curve.values.get(fr)
    if stored is not None:
        return stored
    if curve.depth == 0:
        raise CauchyBudget("depth 0 stores only the endpoints")

    alpha = curve.holder_exponent()
    constant = curve.holder_constant()
    tail = constant * (2.0 ** (-curve.depth * alpha)) / (1 - 2.0 ** -alpha)
    if tol is not None and tail > tol:
        raise CauchyBudget(
            f"Hölder tail {tail:g} at depth {curve.depth} exceeds tolerance {tol:g}")

    return curve.space.limit_point([curve.points[i] for i in _truncations(curve, fr)])


def _truncations(curve, fr):
    """Indices of the binary truncations of ``fr`` at levels 1..depth."""
    num, den, depth = fr.numerator, fr.denominator, curve.depth
    return [((num << n) // den) << (depth - n) for n in range(1, depth + 1)]


def check_causal_extension(curve: DyadicCurve, sample_budget: int = 100,
                           seed: int = DEFAULT_SEED, tol=None) -> Certificate:
    """Causal ordering gamma(t1) <= gamma(t2) on sampled real parameters."""
    rng = make_rng(seed)
    space = curve.space
    violations = []
    checked = 0
    for _ in range(sample_budget):
        t1, t2 = sorted(rng.uniform(0.0, 1.0, size=2))
        if t1 == t2:
            continue
        g1, g2 = extend_curve(curve, t1), extend_curve(curve, t2)
        checked += 1
        if not space.causal_le(g1, g2):
            denom = 1 << curve.depth
            d1 = Fraction(math.floor(t1 * denom), denom)
            d2 = Fraction(math.ceil(t2 * denom), denom)
            violations.append((g1, g2, float(t1), float(t2), str(d1), str(d2)))
    verdict = PASS if not violations else FAIL
    witness = None if not violations else violations[0]
    return Certificate("causal_extension", verdict, float(resolve_tol(space, tol)),
                       checked, seed, witness, {"violations": len(violations)})


@register_replay("causal_extension")
def _replay_causal_extension(space, bundle, cert):
    g1, g2 = cert.witness[0], cert.witness[1]
    return not space.causal_le(g1, g2)


def check_realizer(curve: DyadicCurve, sample_budget: int = 200,
                   seed: int = DEFAULT_SEED, tol=None) -> Certificate:
    """Constant-speed realizer property on sampled parameter pairs.

    Exact/null mode: |tau(gamma(t1), gamma(t2)) - (t2-t1) tau(p,q)| within
    the truncation sandwich slack.  Approximate mode: the two one-sided
    speed bounds with eps-shifted speeds, checked separately, plus the
    total tau-length of the deepest stored partition against tau - eps.
    """
    space = curve.space
    tol = float(resolve_tol(space, tol))
    tau_pq = float(space.tau(curve.p, curve.q))
    eps = curve.epsilon
    trunc = 2.0 ** -curve.depth
    rng = make_rng(seed)
    pairs = [(0.0, 1.0)]
    for _ in range(sample_budget):
        t1, t2 = sorted(rng.uniform(0.0, 1.0, size=2))
        if t1 < t2:
            pairs.append((float(t1), float(t2)))
    violations = []
    max_deviation = 0.0
    for t1, t2 in pairs:
        g1, g2 = extend_curve(curve, t1), extend_curve(curve, t2)
        value = float(space.tau(g1, g2))
        if curve.mode == APPROXIMATE:
            lo_speed, hi_speed = tau_pq - eps, tau_pq + eps
            lo = (t2 - t1) * lo_speed - 2 * trunc * lo_speed - tol
            hi = (t2 - t1) * hi_speed + 2 * trunc * hi_speed + tol
            if value < lo:
                violations.append(("speed_lower", g1, g2, value, lo, hi))
            if value > hi:
                violations.append(("speed_upper", g1, g2, value, lo, hi))
        else:
            target = (t2 - t1) * tau_pq
            slack = 2 * trunc * tau_pq + tol
            max_deviation = max(max_deviation, abs(value - target))
            if abs(value - target) > slack:
                violations.append(("speed", g1, g2, value, target - slack, target + slack))
    length = _deepest_partition_length(curve)
    if curve.mode == APPROXIMATE and length < tau_pq - eps - tol:
        violations.append(("length", curve.p, curve.q, length, tau_pq - eps - tol, None))
    verdict = PASS if not violations else FAIL
    witness = None if not violations else violations[0]
    return Certificate("realizer", verdict, tol, len(pairs), seed, witness,
                       {"max_deviation": max_deviation,
                        "tau_length": length,
                        "sandwich_slack": 2 * trunc * tau_pq,
                        "mode": curve.mode})


def _deepest_partition_length(curve):
    total = 0.0
    for a, b in zip(curve.points, curve.points[1:]):
        total += float(curve.space.tau(a, b))
    return total


@register_replay("realizer")
def _replay_realizer(space, bundle, cert):
    kind, g1, g2, value, lo, hi = cert.witness
    if kind == "length":
        return cert.data["tau_length"] < lo
    fresh = float(space.tau(g1, g2))
    if kind == "speed_lower":
        return fresh < lo
    if kind == "speed_upper":
        return fresh > hi
    return not lo <= fresh <= hi


def check_extension_tail(curve: DyadicCurve, sample_budget: int = 50,
                         seed: int = DEFAULT_SEED, tol=None) -> Certificate:
    """Consecutive truncation points stay within the Hölder tail bound."""
    space = curve.space
    bundle = curve.bundle
    tol = float(resolve_tol(space, tol))
    alpha = curve.holder_exponent()
    constant = curve.holder_constant()
    rng = make_rng(seed)
    violations = []
    for _ in range(sample_budget):
        t = float(rng.uniform(0.0, 1.0))
        prev = None
        for n, i in enumerate(_truncations(curve, Fraction(t)), start=1):
            point = curve.points[i]
            if prev is not None:
                gap = abs(float(bundle.time(point) - bundle.time(prev)))
                bound = constant * (2.0 ** (-(n - 1) * alpha)) + tol
                if gap > bound:
                    violations.append((prev, point, n, gap, bound))
            prev = point
    verdict = PASS if not violations else FAIL
    witness = None if not violations else violations[0]
    return Certificate("extension_tail", verdict, tol, sample_budget, seed, witness,
                       {"violations": len(violations)})


@register_replay("extension_tail")
def _replay_extension_tail(space, bundle, cert):
    prev, point, _, _, bound = cert.witness
    return abs(float(bundle.time(point) - bundle.time(prev))) > bound


def _null_branch_curve(space, bundle, p, q, c, depth):
    """Curve for a null-related pair: the backend's causal path, dyadically sampled."""
    denom = 1 << depth
    if isinstance(space, CausalSetSpace):
        path = space.directed_path(p, q)
        last = len(path) - 1
        points = [path[(i * last) // denom] for i in range(denom + 1)]
    else:
        points = [space.interpolate(p, q, i / denom) for i in range(denom + 1)]
    return DyadicCurve(space, bundle, p, q, c, depth, NULL, 0.0, points)


def synthesize_geodesic(space: Space, bundle: TimeFunctionBundle, p, q, c: float,
                        depth: int, mode: str = EXACT, epsilon: float = 0.0,
                        sample_budget: int = 200, seed: int = DEFAULT_SEED,
                        tol=None):
    """Full pipeline: build, then certify bound, Hölder, extension, causality,
    realizer.  Returns (curve, {certificate name: certificate}).

    Null-related pairs delegate to the backend's causal path, whose realizer
    property is trivial; only the causality and realizer certificates apply
    there.
    """
    if p != q and not space.causal_le(p, q):
        raise ValueError("endpoints must satisfy p <= q")
    if depth < 1:
        raise ValueError("certificates need at least one refinement level")
    if p == q or not space.chronological(p, q):
        curve = _null_branch_curve(space, bundle, p, q, c, depth)
        certificates = {
            "causal_extension": check_causal_extension(curve, sample_budget, seed, tol),
            "realizer": check_realizer(curve, sample_budget, seed, tol),
        }
        return curve, certificates

    curve = build_dyadic_curve(space, bundle, p, q, c, depth, mode, epsilon, tol)
    certificates = {
        "subsequent_dyadic_bound": check_subsequent_bound(curve, bundle, tol),
        "holder": check_holder(curve, bundle, 10 * sample_budget, seed, tol),
        "extension_tail": check_extension_tail(curve, max(sample_budget // 4, 10), seed, tol),
        "causal_extension": check_causal_extension(curve, sample_budget, seed, tol),
        "realizer": check_realizer(curve, sample_budget, seed, tol),
    }
    return curve, certificates
