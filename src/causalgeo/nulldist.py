"""Null distance: exact on causal pairs, graph search on causal sets, zigzag
optimization on flat backends.

The null length of a piecewise causal curve is the sum of absolute
time-function increments over its segment joints; the null distance is the
infimum of null lengths over piecewise causal curves joining two points.
Three computation routes are provided:

* ``causal_exact`` -- for related pairs the distance is exactly the time
  increment, witnessed by the direct segment.
* ``graph`` -- on causal sets, Dijkstra over the symmetrized edge set with
  weights |dT|; lossless because increments telescope along monotone runs.
* ``zigzag`` -- on flat backends, one route that checks in turn the direct
  segment of a related pair, the closed-form two-segment null corner (with
  coordinate time, once its cost meets the lower bound max(|dt|, ||dx||),
  where the search can only lose to it), and a one-parameter nested search
  over four-segment shapes.

The closed form max(|dt|, ||dx||) for the coordinate time function
(:func:`minkowski_analytic_candidate`) is not a route: it is checked against
the default routes by :func:`validate_analytic_fast_path`.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

from .core import (FUTURE, PAST, Certificate, DEFAULT_SEED, PiecewiseCausalCurve,
                   Space, TimeFunctionBundle, certify, make_rng, predicate,
                   resolve_tol)
from .errors import BudgetExceeded, NotConnected, UnsupportedBackend
from .spaces import CausalSetSpace, PlaneFrame


@dataclass(frozen=True)
class NullLengthValue:
    """A null length together with its per-segment |dT| contributions."""

    value: float
    decomposition: tuple


@dataclass(frozen=True)
class NullDistanceResult:
    """A null-distance value with the best witness curve found.

    The value is an infimum estimate; the witness attains it within
    tolerance but attainment of the infimum itself is never claimed.
    """

    value: float
    witness_curve: PiecewiseCausalCurve
    method: str

    def witness_length(self, bundle) -> NullLengthValue:
        return null_length(bundle, self.witness_curve)


def null_length(bundle: TimeFunctionBundle, curve: PiecewiseCausalCurve) -> NullLengthValue:
    """Sum of |T(joint_{i+1}) - T(joint_i)| over the segment partition."""
    curve.validate()
    parts = tuple(abs(bundle.time(b) - bundle.time(a))
                  for a, b in zip(curve.points, curve.points[1:]))
    return NullLengthValue(sum(parts, 0), parts)


# -- zigzag search on flat backends ---------------------------------------------


def _null_corners(a_plane, b_plane):
    """Apexes of the two-segment null zigzags joining two plane points.

    Returns (up_corner, down_corner) in plane coordinates, nudged slightly
    inside the cones so the reconstructed points pass the exact causal
    predicates despite rounding.
    """
    (ta, sa), (tb, sb) = a_plane, b_plane
    gap = abs(sb - sa)
    sgn = 1.0 if sb >= sa else -1.0
    up_t = (ta + tb + gap) / 2.0
    up_s = sa + sgn * (up_t - ta)
    down_t = (ta + tb - gap) / 2.0
    down_s = sa + sgn * (ta - down_t)
    nudge = _corner_nudge(ta, tb, gap)
    return (up_t + nudge, up_s), (down_t - nudge, down_s)


def _corner_nudge(ta, tb, gap):
    """How far :func:`_null_corners` pushes an apex inside the cones."""
    return 1e-12 * (1.0 + abs(ta) + abs(tb) + gap)


def _two_segment_candidates(space, bundle, frame, a, b, a_plane, b_plane):
    """Direct segment (when related) plus the two null-corner zigzags."""
    out = []
    if space.causal_le(a, b):
        out.append((abs(bundle.time(b) - bundle.time(a)), (a, b), (FUTURE,)))
    if space.causal_le(b, a):
        out.append((abs(bundle.time(b) - bundle.time(a)), (a, b), (PAST,)))
    up, down = _null_corners(a_plane, b_plane)
    for (t, s), orientations in ((up, (FUTURE, PAST)), (down, (PAST, FUTURE))):
        m = frame.embed(t, s)
        if not space.contains(m):
            continue
        first, second = orientations
        ok_a = space.causal_le(a, m) if first == FUTURE else space.causal_le(m, a)
        ok_b = space.causal_le(b, m) if second == PAST else space.causal_le(m, b)
        if not (ok_a and ok_b):
            continue
        cost = abs(bundle.time(m) - bundle.time(a)) + abs(bundle.time(b) - bundle.time(m))
        out.append((cost, (a, m, b), orientations))
    return out


def _best_two_segment(space, bundle, frame, a, b, a_plane, b_plane):
    return min(_two_segment_candidates(space, bundle, frame, a, b, a_plane, b_plane),
               key=lambda c: c[0], default=None)


def _zigzag_result(space, best) -> NullDistanceResult:
    cost, joints, orientations = best
    return NullDistanceResult(cost, PiecewiseCausalCurve(space, joints, orientations),
                              "zigzag")


def _zigzag(space, bundle, p, q) -> NullDistanceResult:
    """Nested optimization over two- and four-segment null zigzags.

    A related pair keeps its direct segment: it attains |dT|, which bounds
    every piecewise causal curve from below, so a split could only undercut
    it by rounding.  With coordinate time, max(|dt|, ||dx||) is such a bound
    too; a spacelike pair's corner costs that bound plus two nudges of
    :func:`_null_corners`, and a four-segment candidate splits the pair into
    two spacelike halves that pay two nudges each, so the route stops at a
    corner that meets the bound.  Other time functions, and pairs with no
    surviving corner or whose corner misses the bound, go on to the search.
    """
    frame = PlaneFrame(p, q)
    pp, qp = frame.p_plane, frame.q_plane

    cands = _two_segment_candidates(space, bundle, frame, p, q, pp, qp)
    if cands and len(cands[0][1]) == 2:
        return _zigzag_result(space, cands[0])
    best = min(cands, key=lambda c: c[0], default=None)
    # Two nudges carried by the corner, one more for rounding.
    if (best is not None and bundle.canonical_minkowski and
            abs(best[0] - minkowski_analytic_candidate(bundle, p, q))
            <= 3.0 * _corner_nudge(pp[0], qp[0], frame.span)):
        return _zigzag_result(space, best)

    def four_segment(lam):
        r_plane = (pp[0] + lam * (qp[0] - pp[0]), pp[1] + lam * (qp[1] - pp[1]))
        r = frame.embed(*r_plane)
        if not space.contains(r):
            return None
        left = _best_two_segment(space, bundle, frame, p, r, pp, r_plane)
        right = _best_two_segment(space, bundle, frame, r, q, r_plane, qp)
        if left is None or right is None:
            return None
        cost = left[0] + right[0]
        joints = left[1] + right[1][1:]
        orientations = left[2] + right[2]
        return (cost, joints, orientations)

    # Coarse scan, then golden-section refinement around the best split point.
    lams = [i / 14.0 for i in range(1, 14)]
    scanned = [(lam, four_segment(lam)) for lam in lams]
    scanned = [(lam, c) for lam, c in scanned if c is not None]
    if scanned:
        lam_star, cand = min(scanned, key=lambda lc: lc[1][0])
        lo, hi = max(lam_star - 1 / 14.0, 1e-6), min(lam_star + 1 / 14.0, 1 - 1e-6)
        invphi = (math.sqrt(5.0) - 1.0) / 2.0
        x1 = hi - invphi * (hi - lo)
        x2 = lo + invphi * (hi - lo)
        f1, f2 = four_segment(x1), four_segment(x2)
        for _ in range(48):
            c1 = f1[0] if f1 else math.inf
            c2 = f2[0] if f2 else math.inf
            if c1 < c2:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - invphi * (hi - lo)
                f1 = four_segment(x1)
            else:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + invphi * (hi - lo)
                f2 = four_segment(x2)
        for cand2 in (f1, f2, cand):
            if cand2 is not None and (best is None or cand2[0] < best[0]):
                best = cand2

    if best is None:
        raise NotConnected(f"no zigzag candidate joins {p} and {q}")
    return _zigzag_result(space, best)


def _graph(space: CausalSetSpace, bundle, p, q) -> NullDistanceResult:
    found = space.time_graph_distance(bundle.time, p, q, with_path=True)
    if found is None:
        raise NotConnected(f"no piecewise causal walk joins {p} and {q}")
    dist, path = found
    # Each step is an edge one way or the other; a DAG's causal order tells which.
    orientations = [FUTURE if space.causal_le(a, b) else PAST for a, b in zip(path, path[1:])]
    curve = PiecewiseCausalCurve(space, tuple(path), tuple(orientations))
    return NullDistanceResult(dist, curve, "graph")


def minkowski_analytic_candidate(bundle: TimeFunctionBundle, p, q) -> float:
    """max(|dt|, ||dx||): the null distance of coordinate time on flat space.

    It bounds every piecewise causal curve from below, because each causal
    segment has |dt| >= ||dx||, and the two-segment null corner attains it
    (Sormani-Vega, CQG 33 (2016) 085001).  Only meaningful for the canonical
    bundle; do not trust it on a backend before
    :func:`validate_analytic_fast_path` passes there.
    """
    if not bundle.canonical_minkowski:
        raise UnsupportedBackend("analytic candidate requires the coordinate time function")
    return max(abs(q[0] - p[0]), math.dist(p[1:], q[1:]))


def null_distance(space: Space, bundle: TimeFunctionBundle, p, q,
                  method: str = "auto") -> NullDistanceResult:
    """Null distance between p and q with an explicit witness curve.

    ``auto`` uses the exact causal-pair identity when p and q are related,
    the graph route on discrete backends and the zigzag route on flat ones.
    Forcing ``graph``/``zigzag`` recomputes related pairs the long way
    (useful for cross-checking the identity).
    """
    if method == "auto":
        if p == q:
            # The bundle's own zero: exact on discrete backends, where a float
            # 0.0 would round the exact sums it enters.
            curve = PiecewiseCausalCurve(space, (p,), ())
            return NullDistanceResult(bundle.time(p) - bundle.time(p), curve,
                                      "causal_exact")
        forward = space.causal_le(p, q)
        if forward or space.causal_le(q, p):
            curve = PiecewiseCausalCurve(space, (p, q), (FUTURE if forward else PAST,))
            return NullDistanceResult(abs(bundle.time(q) - bundle.time(p)), curve,
                                      "causal_exact")
        method = "graph" if space.is_discrete else "zigzag"

    if method == "graph":
        if not space.is_discrete:
            raise UnsupportedBackend("graph method needs a causal-set backend")
        return _graph(space, bundle, p, q)
    if method == "zigzag":
        if space.is_discrete:
            raise UnsupportedBackend("zigzag method needs a flat backend")
        if p == q:
            return NullDistanceResult(0.0, PiecewiseCausalCurve(space, (p,), ()),
                                      "zigzag")
        return _zigzag(space, bundle, p, q)
    raise ValueError(f"unknown method {method!r}")


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
        ns = [w for w, _ in space.out_edges(v)] + [w for w, _ in space.in_edges(v)]
        neighbours[v] = sorted(set(ns))
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


def validate_analytic_fast_path(space: Space, bundle: TimeFunctionBundle,
                                sample_budget: int = 200, seed: int = DEFAULT_SEED,
                                tol: float = 1e-9) -> Certificate:
    """Gatekeeper for the analytic candidate: compare it against the default
    route on sampled pairs of every causal character."""
    if not bundle.canonical_minkowski:
        raise UnsupportedBackend("fast path only applies to the coordinate time function")
    rng = make_rng(seed)
    pts = space.sample_points(rng, 2 * sample_budget)
    related = space.sample_causal_pairs(rng, sample_budget // 2)
    pairs = list(zip(pts[0::2], pts[1::2])) + related
    draft = Certificate("analytic_fast_path", None, float(tol), len(pairs), seed)
    return certify(draft, space, bundle, [(a, b, None, None) for a, b in pairs])[0]


@predicate("analytic_fast_path")
def _analytic_fast_path(space, bundle, cert, a, b, _cand, _ref):
    cand = minkowski_analytic_candidate(bundle, a, b)
    ref = null_distance(space, bundle, a, b).value
    return (a, b, cand, ref), abs(cand - ref) > cert.tolerance
