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

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .core import (Certificate, DEFAULT_SEED, Space, TimeFunctionBundle, certify,
                   first, make_rng, predicate, resolve_tol)
from .errors import (BudgetExceeded, CauchyBudget, CausalGeoError, MidpointUnavailable,
                     NotChronological)
# find_midpoint is not called here; perfbench's tracer looks it up by this name.
# Drop it when the tracer wraps _search_with_taus instead (ROADMAP item 3).
from .midpoints import _search_with_taus, find_midpoint  # noqa: F401

EXACT = "exact"
APPROXIMATE = "approximate"
NULL = "null"

# The deepest curve a build accepts.  Time and memory double with each level:
# an exact Minkowski 1+2 `causalgeo geodesic` run with every certificate took
# 3 s and 94 MB at depth 18 and 12 s and 287 MB at depth 20 on a shared
# 2-core machine (28 s when it was busy), so one level more would pass half
# a gigabyte.
MAX_DEPTH = 20


@dataclass(frozen=True)
class DyadicCurve:
    """A map from the dyadic rationals of depth ``depth`` in [0, 1] to points.

    ``points`` holds the ``2^depth + 1`` stored points, the one at ``k/2^n``
    at index ``k * 2^(depth-n)``.  The constructor also accepts a mapping
    from every such dyadic (as a ``Fraction``) to its point.  The curve
    keeps references to its space and time-function bundle so checkers and
    the continuous extension need no extra context.

    ``json_chunks`` streams the text of ``curve.json``; ``as_dict`` builds
    the same payload as dicts, for the library and ``from_dict``.
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

    def json_chunks(self):
        """The text of ``json.dumps(self.as_dict(), indent=2, sort_keys=True)``
        plus a newline: a header, one chunk per values entry, and a footer.

        Neither the entry dicts nor the whole text is built: each chunk is
        formatted the way the json encoder would format it.
        """
        yield "".join([
            "{\n",
            *(f'  "{key}": {json.dumps(value)},\n' for key, value in (
                ("c", self.c), ("depth", self.depth),
                ("epsilon", self.epsilon), ("mode", self.mode))),
            f'  "p": {_point_json(self.p, 2)},\n',
            f'  "q": {_point_json(self.q, 2)},\n',
            '  "values": [\n'])
        depth, sep = self.depth, ""
        for i, point in enumerate(self.points):
            shift = (i & -i).bit_length() - 1 if i else depth
            yield (f'{sep}    {{\n      "k": {i >> shift},\n      "n": {depth - shift},'
                   f'\n      "point": {_point_json(point, 6)}\n    }}')
            sep = ",\n"
        yield "\n  ]\n}\n"

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


def _point_json(point, indent):
    """``json.dumps(_encode_point(point), indent=2)`` nested ``indent`` spaces deep."""
    if not isinstance(point, tuple):
        return encode_basestring_ascii(str(point))
    if not point:
        return "[]"
    pad = "\n" + " " * (indent + 2)
    coords = [float(c) for c in point]
    body = ("," + pad).join(map(float.__repr__, coords))
    if "n" in body:
        # Only "nan" and "inf" contain an n; json spells them NaN and Infinity.
        body = ("," + pad).join([_NON_FINITE.get(text, text)
                                 for text in map(float.__repr__, coords)])
    return "[" + pad + body + "\n" + " " * indent + "]"


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


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
    single point (possible on finite backends) stop refining.  A depth
    above ``MAX_DEPTH`` raises BudgetExceeded before any work starts.

    Each level keeps the tau of its adjacent pairs, in order: the search
    that inserts a midpoint m between x and z returns tau(x, m) and
    tau(m, z), which are the next level's entries and the parent tau of
    its searches, and the level invariants read them too.  So every
    adjacent tau is evaluated once, when its pair is created.
    """
    if depth > MAX_DEPTH:
        raise BudgetExceeded(f"depth {depth} exceeds the limit of {MAX_DEPTH} levels")
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
    tol = resolve_tol(space, tol)

    denom = 1 << depth
    points = [None] * (denom + 1)
    points[0], points[denom] = p, q
    taus = [tau_pq]
    broken = None
    for level in range(1, depth + 1):
        step = denom >> level
        level_eps = 0.0 if mode == EXACT else epsilon / (4 ** level)
        level_taus = []
        for i, tau_xz in zip(range(step, denom, 2 * step), taus):
            x, z = points[i - step], points[i + step]
            if x == z:
                # Both halves collapse too: the invariants skip them and no
                # search reads their tau.
                points[i] = x
                level_taus += (0, 0)
                continue
            if not space.chronological(x, z):
                raise MidpointUnavailable(level, (x, z), "parents lost chronological order")
            found = _search_with_taus(space, bundle, x, z, level_eps, c, tol, tau_xz)
            if found is None:
                kind = "exact" if mode == EXACT else f"eps={level_eps:g}"
                raise MidpointUnavailable(
                    level, (x, z),
                    f"no {kind} midpoint in the strip for c={c}; the backend lacks "
                    "strip-compatible midpoints for this pair")
            points[i], tau_xm, tau_mz = found
            level_taus += (tau_xm, tau_mz)
        taus = level_taus
        # A midpoint missing at a deeper level outranks a broken invariant,
        # so the first broken level is only raised once every level is built.
        if broken is None:
            broken = _level_invariant_error(points, step, taus, level, tau_pq,
                                            epsilon, mode == EXACT, tol)
    if broken is not None:
        raise broken
    return DyadicCurve(space, bundle, p, q, c, depth, mode, epsilon, points)


def _level_invariant_error(points, step, taus, level, tau_pq, epsilon, exact, tol):
    """The error for the first level-``level`` pair whose tau (``taus[k]`` for
    the pair at indices ``k*step``, ``(k+1)*step``) leaves the level's target
    (exact mode) or floor (approximate mode), or None."""
    target = tau_pq / (1 << level)
    floor = (tau_pq - epsilon) / (1 << level)
    drift = 4 * tol * (1 + float(tau_pq))
    for k, t in enumerate(taus):
        if points[k * step] == points[(k + 1) * step]:
            continue
        if exact and abs(t - target) > drift:
            problem = f"drifted from {float(target)}"
        elif not exact and not t > floor - tol:
            problem = f"below the level floor {float(floor)}"
        else:
            continue
        a_param, b_param = Fraction(k, 1 << level), Fraction(k + 1, 1 << level)
        return CausalGeoError(
            f"level {level} pair {a_param}..{b_param}: tau {float(t)} {problem}")
    return None


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
    null distance) never exceeds ``(1-c)^n (T(q) - T(p))``.  Only the pairs
    of a level whose widest or narrowest gap misses the bound are handed to
    the predicate.
    """
    bundle = bundle or curve.bundle
    tol = resolve_tol(curve.space, tol)
    gap_total = float(bundle.time(curve.q) - bundle.time(curve.p))
    times = [bundle.time(x) for x in curve.points]
    cases = []
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
            pts = curve.points[::step]
            cases.extend((level, a, b, None, bound) for a, b in zip(pts, pts[1:]))
    samples = sum(1 << level for level in range(1, curve.depth + 1))
    draft = Certificate("subsequent_dyadic_bound", None, float(tol), samples, DEFAULT_SEED,
                        data={"max_excess": max_excess if samples else None, "c": curve.c})
    return certify(draft, curve.space, bundle, cases, first, count=False)[0]


@predicate("subsequent_dyadic_bound")
def _subsequent_bound(space, bundle, cert, level, a, b, _gap, bound):
    gap = float(bundle.time(b) - bundle.time(a))
    return (level, a, b, gap, bound), gap > bound + cert.tolerance or gap < -cert.tolerance


def check_holder(curve: DyadicCurve, bundle: TimeFunctionBundle = None,
                 sample_budget: int = 2000, seed: int = DEFAULT_SEED,
                 tol=None) -> HolderCertificate:
    """Max observed d_T ratio over |t - t'|^alpha against the constant K.

    Stored dyadics with t < t' are chronologically ordered, so the null
    distance equals the time gap and the ratio is computed directly.  The
    witness is the pair of largest ratio.
    """
    bundle = bundle or curve.bundle
    tol_f = float(resolve_tol(curve.space, tol)) or 1e-12
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
    draft = HolderCertificate("holder", None, tol_f, len(index_pairs), seed,
                              alpha=curve.holder_exponent(),
                              constant=curve.holder_constant())
    cases = [(curve.points[i], curve.points[j], (j - i) / denom, None)
             for i, j in index_pairs]
    cert, completed = certify(draft, curve.space, bundle, cases,
                              lambda failures: max(failures, key=lambda w: w[3]),
                              count=False)
    max_ratio = max([0.0, *(w[3] for w in completed)])
    return replace(cert, max_ratio=max_ratio, data={"slack": cert.constant - max_ratio})


@predicate("holder")
def _holder(space, bundle, cert, a, b, dt, _ratio):
    ratio = float(bundle.time(b) - bundle.time(a)) / dt ** cert.alpha
    return (a, b, dt, ratio), ratio > cert.constant + cert.tolerance


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
    denom = 1 << curve.depth
    cases = []
    for _ in range(sample_budget):
        t1, t2 = sorted(rng.uniform(0.0, 1.0, size=2))
        if t1 == t2:
            continue
        g1, g2 = extend_curve(curve, t1), extend_curve(curve, t2)
        d1 = Fraction(math.floor(t1 * denom), denom)
        d2 = Fraction(math.ceil(t2 * denom), denom)
        cases.append((g1, g2, float(t1), float(t2), str(d1), str(d2)))
    draft = Certificate("causal_extension", None, float(resolve_tol(curve.space, tol)),
                        len(cases), seed)
    return certify(draft, curve.space, curve.bundle, cases, first)[0]


@predicate("causal_extension")
def _causal_extension(space, bundle, cert, g1, g2, *params):
    return (g1, g2, *params), not space.causal_le(g1, g2)


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
    approximate = curve.mode == APPROXIMATE
    rng = make_rng(seed)
    pairs = [(0.0, 1.0)]
    for _ in range(sample_budget):
        t1, t2 = sorted(rng.uniform(0.0, 1.0, size=2))
        if t1 < t2:
            pairs.append((float(t1), float(t2)))
    cases = []
    for t1, t2 in pairs:
        g1, g2 = extend_curve(curve, t1), extend_curve(curve, t2)
        if approximate:
            lo_speed, hi_speed = tau_pq - eps, tau_pq + eps
            lo = (t2 - t1) * lo_speed - 2 * trunc * lo_speed - tol
            hi = (t2 - t1) * hi_speed + 2 * trunc * hi_speed + tol
            cases.append((None, g1, g2, None, lo, hi))
        else:
            target = (t2 - t1) * tau_pq
            slack = 2 * trunc * tau_pq + tol
            cases.append(("speed", g1, g2, None, target - slack, target + slack))
    # The tau-length of the deepest stored partition.
    pts = curve.points
    length = sum((float(space.tau(a, b)) for a, b in zip(pts, pts[1:])), 0.0)
    if approximate:
        cases.append(("length", curve.p, curve.q, length, tau_pq - eps - tol, None))
    draft = Certificate("realizer", None, tol, len(pairs), seed)
    cert, completed = certify(draft, space, curve.bundle, cases, first, count=False)
    max_deviation = 0.0 if approximate else max(
        [0.0, *(abs(w[3] - (t2 - t1) * tau_pq) for w, (t1, t2) in zip(completed, pairs))])
    return replace(cert, data={"max_deviation": max_deviation,
                               "tau_length": length,
                               "sandwich_slack": 2 * trunc * tau_pq,
                               "mode": curve.mode})


@predicate("realizer")
def _realizer(space, bundle, cert, kind, g1, g2, value, lo, hi):
    """Kind None (approximate mode) checks both one-sided speed bounds; the
    deepest-partition ``length`` is measured on the curve and kept as given."""
    if kind == "length":
        return (kind, g1, g2, value, lo, hi), value < lo
    value = float(space.tau(g1, g2))
    if kind is None:
        kind = "speed_lower" if value < lo else "speed_upper"
    failed = {"speed_lower": value < lo, "speed_upper": value > hi,
              "speed": not lo <= value <= hi}[kind]
    return (kind, g1, g2, value, lo, hi), failed


def check_extension_tail(curve: DyadicCurve, sample_budget: int = 50,
                         seed: int = DEFAULT_SEED, tol=None) -> Certificate:
    """Consecutive truncation points stay within the Hölder tail bound."""
    tol = float(resolve_tol(curve.space, tol))
    alpha = curve.holder_exponent()
    constant = curve.holder_constant()
    rng = make_rng(seed)
    cases = []
    for _ in range(sample_budget):
        t = float(rng.uniform(0.0, 1.0))
        points = [curve.points[i] for i in _truncations(curve, Fraction(t))]
        cases.extend((prev, point, n, None, constant * (2.0 ** (-(n - 1) * alpha)) + tol)
                     for n, (prev, point) in enumerate(zip(points, points[1:]), start=2))
    draft = Certificate("extension_tail", None, tol, sample_budget, seed)
    return certify(draft, curve.space, curve.bundle, cases, first)[0]


@predicate("extension_tail")
def _extension_tail(space, bundle, cert, prev, point, n, _gap, bound):
    gap = abs(float(bundle.time(point) - bundle.time(prev)))
    return (prev, point, n, gap, bound), gap > bound


def _null_branch_curve(space, bundle, p, q, c, depth):
    """Curve for a null-related pair: the backend's causal path, dyadically sampled."""
    denom = 1 << depth
    if space.is_discrete:
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
    if depth > MAX_DEPTH:
        raise BudgetExceeded(f"depth {depth} exceeds the limit of {MAX_DEPTH} levels")
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
