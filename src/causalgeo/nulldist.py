"""Null distance: exact on causal pairs, graph search on causal sets, a closed
form on flat backends.

The null length of a piecewise causal curve is the sum of absolute
time-function increments over its segment joints; the null distance d_T is
the infimum of null lengths over piecewise causal curves joining two points
(Sormani-Vega, CQG 33 (2016) 085001).  The input picks the route:

* ``causal_exact`` -- a related pair, p == q included: exactly the time
  increment, witnessed by the direct segment.
* ``graph`` -- any other pair on a causal set: A* over the symmetrized edge
  set with weights |dT|; lossless because increments telescope.
* ``zigzag`` -- any other pair on a flat backend, for T = f(t) with f
  increasing: the closed form of :func:`_zigzag`, the least cost of going
  null to one level, crossing there and going null on.  The candidate levels
  are the two null corners and the local minima of f' (``slope_minima``).

Every route builds its witness curve only on request
(:attr:`NullDistanceResult.witness_curve`).
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .core import (FUTURE, PAST, Certificate, DEFAULT_SEED, PiecewiseCausalCurve,
                   Space, TimeFunctionBundle, certify, make_rng, predicate,
                   resolve_tol)
from .errors import BudgetExceeded, NotConnected, UnsupportedBackend
from .spaces import CausalSetSpace, embed_rows


@dataclass(frozen=True)
class NullLengthValue:
    """A null length together with its per-segment |dT| contributions."""

    value: float
    decomposition: tuple


@dataclass(frozen=True)
class NullDistanceResult:
    """A null-distance value with a witness curve built on request.

    The value is an infimum estimate; the witness attains it within
    tolerance but attainment of the infimum itself is never claimed.
    :attr:`witness_curve` calls ``build_witness`` on first access only, so
    callers that read only ``value`` never pay for a witness.
    """

    value: float
    build_witness: Callable = field(repr=False, compare=False)
    method: str

    @cached_property
    def witness_curve(self) -> PiecewiseCausalCurve:
        return self.build_witness()

    def witness_length(self, bundle) -> NullLengthValue:
        return null_length(bundle, self.witness_curve)


def null_length(bundle: TimeFunctionBundle, curve: PiecewiseCausalCurve) -> NullLengthValue:
    """Sum of |T(joint_{i+1}) - T(joint_i)| over the segment partition."""
    curve.validate()
    parts = tuple(abs(bundle.time(b) - bundle.time(a))
                  for a, b in zip(curve.points, curve.points[1:]))
    return NullLengthValue(sum(parts, 0), parts)


# -- zigzag search on flat backends ---------------------------------------------


def _corner_nudge(ta, tb, gap):
    """How far :func:`_teeth` pushes a turning point inside the cones."""
    return 1e-12 * (1.0 + abs(ta) + abs(tb) + gap)


def _zigzag(space, bundle, p, q) -> NullDistanceResult:
    """Null distance of T = f(t), f increasing, on a flat backend.

    Let a piecewise causal curve from p to q cross level t n(t) times.  Its
    null length is the integral of f'(t) n(t) dt, and since every causal
    segment has ||dx|| <= |dt|, ||Dx|| <= integral of n(t) dt.  The curve
    covers levels [lo, hi] around t_p and t_q, crossing each level between
    them at least once and every other level at least twice.  Let s minimize
    f' on [lo, hi].  The curve's crossings beyond those of the path that
    goes null from p to level s and null on to q are all charged at least
    f'(s), and they carry all but |s - t_p| + |s - t_q| of ||Dx||.  So the
    null length is at least

        g(s) = |f(s) - f(t_p)| + |f(t_q) - f(s)| + f'(s) R(s),
        R(s) = max(0, ||Dx|| - |s - t_p| - |s - t_q|),

    the cost of going null to level s, crossing the remaining R(s) there
    and going null on to q, which null teeth straddling s attain in the limit
    (:func:`_crossing_witness`).  Hence d_T = min over s of g(s).  Where
    R > 0, g'(s) = f''(s) R(s), so the minimum sits at a null-corner level
    (t_p + t_q -+ ||Dx||)/2, where R = 0, or at a level strictly between
    them where f' has a local minimum: ``bundle.slope_minima``.

    Every candidate level is valued by g alone; removing finitely many
    points does not change the infimum, so removed points move only the
    witness.  For coordinate time g at either corner is max(|dt|, ||Dx||)
    up to rounding.
    """
    tp, tq, span = p[0], q[0], math.dist(p[1:], q[1:])
    down, up = (tp + tq - span) / 2.0, (tp + tq + span) / 2.0
    levels = [(up, 0.0), (down, 0.0)]
    levels += [(s, slope) for s, slope in bundle.slope_minima if down < s < up]
    time_p, time_q = bundle.time(p), bundle.time(q)
    found = []
    for s, slope in levels:
        f_s = bundle.f(s)
        reach = max(0.0, span - abs(s - tp) - abs(s - tq))
        found.append((abs(f_s - time_p) + abs(time_q - f_s) + slope * reach, s))
    value, level = min(found, key=lambda c: c[0])
    return NullDistanceResult(
        value, partial(_crossing_witness, space, bundle, p, q, level, value), "zigzag")


def _crossing_witness(space, bundle, p, q, level, value):
    """A piecewise causal curve from p to q crossing at ``level``, with null
    length within tolerance above ``value``, g(level) of :func:`_zigzag`.

    N null teeth of height h = R/(4N) straddle the level.  Each costs
    2 (f(level + h) - f(level - h)) for 4h of ||Dx||, so the excess over g
    falls like R h^2.  N is taken from the excess gap_1 of one tooth and
    aimed at half the tolerance, N = ceil(sqrt(2 gap_1 / tol)), and the
    curve is built once more and checked.  At a null-corner level, R = 0
    and the curve is the null corner.
    """
    tol, teeth = resolve_tol(space, None), 1
    for _ in range(2):
        curve = _teeth(space, p, q, level, teeth)
        gap = null_length(bundle, curve).value - value
        if gap <= tol:
            return curve
        teeth = math.ceil(math.sqrt(2 * gap / tol))
    raise BudgetExceeded(f"teeth crossing level {level} miss the null distance", value + gap)


def _teeth(space, p, q, level, teeth):
    """Null from p to ``level``, ``teeth`` teeth across the remaining R, null
    on to q.  Each turning point, a joint at or beyond both neighbours in
    time, is nudged :func:`_corner_nudge` further out, so it is causal to
    both despite rounding, and further while it is a removed point.  Teeth
    are laid where R exceeds the nudge, which the nudged corner covers, or
    where the curve passes the level monotonically and cannot turn there.
    The joints are rows of the p-q plane (:func:`~causalgeo.spaces.embed_rows`),
    and each nudge moves only the rows still on a removed point."""
    tp, tq, span = p[0], q[0], math.dist(p[1:], q[1:])
    a, b = abs(level - tp), span - abs(tq - level)
    nudge = _corner_nudge(tp, tq, span)
    profile = [(tp, 0.0), (level, a)]
    if b - a > nudge or min(tp, tq) < level < max(tp, tq):
        h = (b - a) / (4 * teeth)
        for k in range(teeth):
            profile += [(level + h, a + (4 * k + 1) * h), (level - h, a + (4 * k + 3) * h)]
        profile.append((level, b))
    profile.append((tq, span))
    # Joints are the turning points; the rest lie on straight null runs.
    t, s, step = np.array([(t, s, nudge if t >= max(t0, t1) else -nudge)
                           for (t0, _), (t, s), (t1, _) in zip(profile, profile[1:], profile[2:])
                           if t >= max(t0, t1) or t <= min(t0, t1)]).T
    p_row, q_row = np.array([[p], [q]], float)
    joints, moved = np.empty((len(t), len(p))), np.arange(len(t))
    while moved.size:
        t[moved] += step[moved]
        joints[moved] = embed_rows(p_row, q_row, np.array([span]), t[moved], s[moved])
        moved = moved[[not space.contains(joint) for joint in map(tuple, joints[moved].tolist())]]
    points = (p, *map(tuple, joints.tolist()), q)
    return PiecewiseCausalCurve(space, points, tuple(
        FUTURE if y[0] > x[0] else PAST for x, y in zip(points, points[1:])))


def _direct(space, bundle, p, q, forward) -> NullDistanceResult:
    """The direct segment of a related pair: it attains |dT|, which bounds
    every piecewise causal curve from below.  With p == q the value is the
    bundle's own zero: exact on discrete backends, where a float 0.0 would
    round the exact sums it enters."""
    curve = partial(PiecewiseCausalCurve, space, (p, q), (FUTURE if forward else PAST,))
    return NullDistanceResult(abs(bundle.time(q) - bundle.time(p)), curve, "causal_exact")


def _graph(space: CausalSetSpace, bundle, p, q) -> NullDistanceResult:
    if bundle.time != space.time_of:
        raise UnsupportedBackend("a causal set's null distance is that of its stored times")
    found = space.time_graph_distance(p, q, with_path=True)
    if found is None:
        raise NotConnected(f"no piecewise causal walk joins {p} and {q}")
    dist, path = found
    # Each step is an edge one way or the other; a DAG's causal order tells which.
    orientations = [FUTURE if space.causal_le(a, b) else PAST for a, b in zip(path, path[1:])]
    return NullDistanceResult(
        dist, partial(PiecewiseCausalCurve, space, tuple(path), tuple(orientations)), "graph")


def null_distance(space: Space, bundle: TimeFunctionBundle, p, q) -> NullDistanceResult:
    """Null distance between p and q with a witness curve built on request.

    A related pair takes the exact identity (:func:`_direct`); any other pair
    takes the graph route on discrete backends and the zigzag on flat ones.
    """
    forward = space.causal_le(p, q)
    if forward or space.causal_le(q, p):
        return _direct(space, bundle, p, q, forward)
    return (_graph if space.is_discrete else _zigzag)(space, bundle, p, q)


# -- independent oracles ----------------------------------------------------------


def null_distance_oracle(space: Space, bundle: TimeFunctionBundle, p, q,
                         resolution: float = None, budget: int = 400_000):
    """Brute-force null distance, independent of the production routes.

    Discrete backends: exhaustive enumeration of simple piecewise causal
    walks (branch-and-bound, exact rational arithmetic).  Flat backends:
    Dijkstra over a causal lattice of the given resolution; values are
    monotone nonincreasing under aligned refinement for the canonical time
    function.
    """
    if space.is_discrete:
        return _exhaustive_walks(space, bundle, p, q, budget)
    if resolution is None:
        raise ValueError("flat-backend oracle needs a grid resolution")
    if len(p) != 2:
        raise UnsupportedBackend("grid oracle is implemented for R^{1,1}")
    return _grid_oracle(space, bundle, p, q, resolution, budget)


def _exhaustive_walks(space: CausalSetSpace, bundle, p, q, budget):
    if p == q:
        return 0
    neighbours = {}
    for v in space.vertices:
        neighbours[v] = sorted(set(space.out_edges(v) + space.in_edges(v)))
    best = None
    expansions = 0
    stack = [(p, 0, frozenset([p]))]
    while stack:
        v, cost, visited = stack.pop()
        expansions += 1
        if expansions > budget:
            raise BudgetExceeded("walk enumeration budget exhausted",
                                 float(best) if best is not None else math.inf)
        if best is not None and cost >= best:
            continue
        if v == q:
            best = cost
            continue
        for w in neighbours[v]:
            if w in visited:
                continue
            step = abs(bundle.time(w) - bundle.time(v))
            nxt = cost + step
            if best is None or nxt < best:
                stack.append((w, nxt, visited | {w}))
    if best is None:
        raise NotConnected(f"no piecewise causal walk joins {p} and {q}")
    return best


def _grid_oracle(space, bundle, p, q, h, budget):
    dt, dxn = abs(q[0] - p[0]), abs(q[1] - p[1])
    pad = 0.75 * (dt + dxn) + 0.25
    t0 = min(p[0], q[0]) - pad
    x0 = min(p[1], q[1]) - pad
    ni = int(math.ceil((max(p[0], q[0]) + pad - t0) / h))
    nj = int(math.ceil((max(p[1], q[1]) + pad - x0) / h))
    if (ni + 1) * (nj + 1) > budget:
        raise BudgetExceeded("grid too large for budget", math.inf)

    def world(node):
        i, j = node
        return (t0 + i * h, x0 + j * h)

    def endpoint_links(point):
        """Grid nodes causally related to an off-lattice endpoint."""
        ci = (point[0] - t0) / h
        cj = (point[1] - x0) / h
        links = []
        for i in range(int(ci) - 3, int(ci) + 5):
            for j in range(int(cj) - 3, int(cj) + 5):
                if not (0 <= i <= ni and 0 <= j <= nj):
                    continue
                w = world((i, j))
                if max(abs(w[0] - point[0]), abs(w[1] - point[1])) > 3 * h:
                    continue
                if space.causal_le(point, w) or space.causal_le(w, point):
                    links.append((i, j))
        return links

    source, target = ("P",), ("Q",)
    p_links = endpoint_links(p)
    q_links = set(endpoint_links(q))

    def neighbours(node):
        if node == source:
            for n in p_links:
                yield n, abs(bundle.time(world(n)) - bundle.time(p))
            if space.causal_le(p, q) or space.causal_le(q, p):
                yield target, abs(bundle.time(q) - bundle.time(p))
            return
        i, j = node
        here = world(node)
        for di, dj in ((1, 0), (1, 1), (1, -1), (-1, 0), (-1, 1), (-1, -1)):
            ii, jj = i + di, j + dj
            if 0 <= ii <= ni and 0 <= jj <= nj:
                there = world((ii, jj))
                yield (ii, jj), abs(bundle.time(there) - bundle.time(here))
        if node in q_links:
            yield target, abs(bundle.time(q) - bundle.time(here))

    dist = {source: 0.0}
    counter = itertools.count()
    heap = [(0.0, next(counter), source)]
    settled = set()
    while heap:
        d, _, v = heapq.heappop(heap)
        if v in settled:
            continue
        settled.add(v)
        if v == target:
            return d
        if len(settled) > budget:
            raise BudgetExceeded("grid search budget exhausted",
                                 dist.get(target, math.inf))
        for w, step in neighbours(v):
            nd = d + step
            if w not in dist or nd < dist[w]:
                dist[w] = nd
                heapq.heappush(heap, (nd, next(counter), w))
    raise NotConnected(f"grid search found no walk from {p} to {q}")


# -- certificates ------------------------------------------------------------------


def check_metric_axioms(space: Space, bundle: TimeFunctionBundle, sample_budget: int = 200,
                        seed: int = DEFAULT_SEED, tol=None, extra_pairs=()) -> Certificate:
    """Symmetry, triangle inequality and definiteness of the null distance.

    Definiteness fails when two distinct sampled points sit within tolerance
    of null distance zero; ``extra_pairs`` lets callers pin adversarial
    pairs into the sample deterministically.
    """
    tol = resolve_tol(space, tol)
    rng = make_rng(seed)
    pairs = list(extra_pairs)
    pts = space.sample_points(rng, max(2 * sample_budget, 4))
    for i in range(sample_budget):
        pairs.append((pts[2 * i], pts[2 * i + 1]))
    triples_pts = space.sample_points(rng, 3 * sample_budget)
    triples = [tuple(triples_pts[3 * i: 3 * i + 3]) for i in range(sample_budget)]
    cases = ([(None, a, b, None) for a, b in pairs]
             + [("triangle", a, b, c, None) for a, b, c in triples])
    draft = Certificate("metric_axioms", None, float(tol), len(pairs) + len(triples), seed,
                        data={"pairs": len(pairs), "triples": len(triples)})
    return certify(draft, space, bundle, cases)[0]


def _distance(space, bundle, a, b):
    try:
        return null_distance(space, bundle, a, b).value
    except NotConnected:
        return math.inf


@predicate("metric_axioms")
def _metric_axioms(space, bundle, cert, kind, a, b, *rest):
    """Kind None checks symmetry and definiteness of a pair with one d(a, b)."""
    tol = cert.tolerance
    if kind == "triangle":
        c = rest[0]
        d_ac = _distance(space, bundle, a, c)
        d_ab = _distance(space, bundle, a, b)
        d_bc = _distance(space, bundle, b, c)
        excess = d_ac - (d_ab + d_bc)
        return ("triangle", a, b, c, excess), math.inf not in (d_ab, d_bc) and excess > tol
    d_ab = _distance(space, bundle, a, b)
    found = []
    if kind in (None, "symmetry"):
        diff = abs(d_ab - _distance(space, bundle, b, a))
        found.append((("symmetry", a, b, diff), d_ab != math.inf and diff > tol))
    if kind in (None, "definiteness"):
        found.append((("definiteness", a, b, d_ab), a != b and d_ab <= tol))
    return found if kind is None else found[0]

