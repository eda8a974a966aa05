"""Concrete causal-space backends.

* :class:`MinkowskiSpace` -- flat (1+n)-dimensional space with coordinate
  points ``(t, x1, ..., xn)``.
* :class:`CausalSetSpace` -- a finite weighted DAG; the causal relation is
  reachability, time separation is the longest (maximum-weight) directed
  chain; it and the null distance are exact sums of integer ticks.
* :class:`PuncturedMinkowski` -- Minkowski space with finitely many points
  removed; a stock negative example for exact-midpoint existence.
* :func:`sprinkle_causet` -- Poisson sprinkles of a causal diamond.

Causal-set vertex times and edge weights are stored as :class:`~fractions.Fraction`
so discrete checks are exact; continuum backends work in floats with a
1e-9 default tolerance.
"""

from __future__ import annotations

import heapq
import json
import math
from bisect import bisect_right
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property
from itertools import accumulate

import numpy as np

from .core import (AntiLipschitzWitness, FlatTimeBundle, Space, TimeFunctionBundle,
                   atomic_write, coordinate_time, csv_rows, csv_text, json_chunks)
from .errors import BudgetExceeded, NotComplete


class MinkowskiSpace(Space):
    """Flat space R^{1,n}; points are tuples (t, x1, ..., xn).

    ``window`` bounds the region used by the seeded samplers only; the
    universe itself is unbounded.  Complete: the limit operation returns the
    final element of a certified Cauchy sequence.
    """

    # No point is missing from the universe; PuncturedMinkowski sets its own.
    removed = frozenset()

    def __init__(self, spatial_dimension: int = 1, window=((-2.0, 2.0), 2.0)):
        if spatial_dimension < 1:
            raise ValueError("spatial dimension must be >= 1")
        self.spatial_dimension = spatial_dimension
        self.window = ((float(window[0][0]), float(window[0][1])), float(window[1]))
        self.name = f"minkowski(1+{spatial_dimension})"

    def _delta(self, x, y):
        dt = y[0] - x[0]
        dx = math.dist(x[1:], y[1:])
        return dt, dx

    def causal_le(self, x, y):
        dt, dx = self._delta(x, y)
        return dt >= dx

    def chronological(self, x, y):
        dt, dx = self._delta(x, y)
        return dt > dx

    def tau(self, x, y):
        dt, dx = self._delta(x, y)
        if dt < dx:
            return 0.0
        return math.sqrt(max(dt * dt - dx * dx, 0.0))

    def delta_rows(self, xs, ys):
        """``_delta`` of each row pair xs[k] -> ys[k] of two (k, 1+n) float
        arrays, bit for bit: ``math.hypot`` of a row's differences is the
        norm ``math.dist`` takes, and numpy subtracts as Python does."""
        dx = map(math.hypot, *(ys[:, 1:] - xs[:, 1:]).T.tolist())
        return ys[:, 0] - xs[:, 0], np.fromiter(dx, float, len(xs))

    def tau_rows(self, xs, ys):
        """``tau`` of each row pair xs[k] -> ys[k], as an array."""
        dt, dx = self.delta_rows(xs, ys)
        return np.where(dt < dx, 0.0, np.sqrt(np.maximum(dt * dt - dx * dx, 0.0)))

    def interpolate(self, x, y, s):
        return tuple(a + s * (b - a) for a, b in zip(x, y))

    def limit_point(self, points):
        if not points:
            raise NotComplete("empty sequence has no limit")
        return points[-1]

    def sample_points(self, rng, count):
        (t_lo, t_hi), radius = self.window
        out = []
        for _ in range(count):
            t = rng.uniform(t_lo, t_hi)
            xs = [rng.uniform(-radius, radius) for _ in range(self.spatial_dimension)]
            out.append((t, *xs))
        return out

    def _future_point(self, rng, p, max_ratio, head_fraction):
        (t_lo, t_hi), _ = self.window
        head = (t_hi - p[0]) * head_fraction
        dt = head * rng.uniform(0.05, 1.0)
        u = max_ratio * rng.uniform()
        direction = rng.normal(size=self.spatial_dimension)
        norm = math.hypot(*direction)
        if norm == 0.0:
            direction = [1.0] + [0.0] * (self.spatial_dimension - 1)
            norm = 1.0
        dx = [u * dt * d / norm for d in direction]
        return (p[0] + dt, *(a + b for a, b in zip(p[1:], dx)))

    def _sample_chains(self, rng, count, length, margin, max_ratio, head_fraction):
        """Chains of ``length`` points, each in the causal future of the last,
        from a start at least ``margin`` of the window below its top."""
        (t_lo, t_hi), _ = self.window
        out = []
        while len(out) < count:
            chain = self.sample_points(rng, 1)
            if t_hi - chain[0][0] < margin * (t_hi - t_lo):
                continue
            while len(chain) < length:
                chain.append(self._future_point(rng, chain[-1], max_ratio, head_fraction))
            out.append(tuple(chain))
        return out

    def sample_chronological_pairs(self, rng, count):
        return self._sample_chains(rng, count, 2, 0.02, 0.95, 1.0)

    def sample_causal_pairs(self, rng, count):
        return self._sample_chains(rng, count, 2, 0.02, 1.0, 1.0)

    def sample_causal_chains(self, rng, count):
        return self._sample_chains(rng, count, 3, 0.05, 1.0, 0.5)


def embed_rows(ps, qs, span, t, s):
    """The point of the p-q plane at lab time t, a distance s from p along
    the spatial direction p -> q, for each row pair of two (k, 1+n) arrays
    given their spans as :meth:`MinkowskiSpace.delta_rows` returns them (a
    zero span takes the first axis).  The output has a row per entry of t,
    so one (1, 1+n) pair broadcasts over many levels."""
    unit = (qs[:, 1:] - ps[:, 1:]) / np.where(span == 0.0, 1.0, span)[:, None]
    unit[span == 0.0] = np.eye(1, unit.shape[1])
    out = np.empty((len(t), ps.shape[1]))
    out[:, 0] = t
    out[:, 1:] = ps[:, 1:] + s[:, None] * unit
    return out


class PuncturedMinkowski(MinkowskiSpace):
    """Minkowski space with a finite set of points removed from the universe.

    Relations and tau are inherited by restriction.  Not complete: a Cauchy
    sequence may converge to a removed point, in which case the limit
    operation refuses.
    """

    def __init__(self, spatial_dimension: int = 1, removed=(), window=((-2.0, 2.0), 2.0)):
        super().__init__(spatial_dimension, window)
        self.removed = frozenset(tuple(float(c) for c in p) for p in removed)
        self.name = f"punctured-{self.name}"

    def contains(self, x):
        return tuple(x) not in self.removed

    def _delta(self, x, y):
        # causal_le, chronological and tau all read the pair through here.
        for p in (x, y):
            if not self.contains(p):
                raise ValueError(f"{p} has been removed from the universe")
        return super()._delta(x, y)

    def delta_rows(self, xs, ys):
        # tau_rows reads its rows through here, as tau reads a pair through _delta.
        for rows in (xs, ys):
            for removed in self.removed:
                hit = np.flatnonzero((rows == removed).all(axis=1))
                if hit.size:
                    raise ValueError(f"{removed} has been removed from the universe")
        return super().delta_rows(xs, ys)

    def limit_point(self, points):
        limit = super().limit_point(points)
        if not self.contains(limit):
            raise NotComplete(f"limit {limit} escapes the punctured universe")
        return limit

    def sample_points(self, rng, count):
        out = []
        while len(out) < count:
            pts = super().sample_points(rng, count - len(out))
            out.extend(p for p in pts if self.contains(p))
        return out


def _as_fraction(value):
    if isinstance(value, (Fraction, int, str)):
        return Fraction(value)
    return Fraction(float(value))


class CausalSetSpace(Space):
    """A finite causal set given by a weighted DAG.

    * ``<=`` is the reflexive-transitive closure of the edge list.
    * ``<<`` holds when some connecting path has positive total weight.
    * ``tau`` is the maximum total weight over directed paths (longest
      chain), which satisfies the reverse triangle inequality by
      concatenation.

    The edges are kept exactly as given, so a direct edge heavier than a
    chain it shortcuts sets tau.  Vertex time must strictly increase along
    every edge, which rejects any cycle and makes time order (ties by id) a
    topological order; the engine indexes vertices by their position in it.
    Per vertex x, the bitmask ``_reach[x]`` holds every y with x <= y and
    ``_chron[x]`` every y with x << y (bit i is the i-th sorted id); related
    pairs and chains are indexed views over them.  Vertex times and weights
    are exact rationals; one scale, the lcm of their denominators, makes each
    a whole number of ticks, so tau, the midpoint scan and the null distance
    of the stored times (the set's time function) are integer sums and
    comparisons, made Fractions again only when returned.  Each query runs
    its own longest-path passes, forward from a source over out-edges or
    backward to a target over in-edges, along the stretch of the topological
    order it needs; the only post-construction state is the |dT| tick
    adjacency of the null distance, built on first use.
    """

    is_discrete = True

    def __init__(self, vertices, edges, name: str = "causet"):
        self.name = name
        t_map = {}
        order = []
        for vid, t in vertices:
            vid = str(vid)
            if vid in t_map:
                raise ValueError(f"duplicate vertex id {vid!r}")
            t_map[vid] = _as_fraction(t)
            order.append(vid)
        self._ids = tuple(sorted(order))
        self._index = {v: i for i, v in enumerate(self._ids)}
        self._t = t_map

        seen = set()
        edge_list = []
        for src, dst, w in edges:
            src, dst = str(src), str(dst)
            if src not in t_map or dst not in t_map:
                raise ValueError(f"edge ({src}, {dst}) references unknown vertex")
            w = _as_fraction(w)
            if w < 0:
                raise ValueError(f"negative weight on edge ({src}, {dst})")
            if (src, dst) in seen:
                raise ValueError(f"duplicate edge ({src}, {dst})")
            if t_map[dst] <= t_map[src]:
                raise ValueError(
                    f"vertex time must strictly increase along edge ({src}, {dst})")
            seen.add((src, dst))
            edge_list.append((src, dst, w))

        self.edges = tuple(sorted(edge_list))
        scale = self._scale = math.lcm(*(t.denominator for t in t_map.values()),
                                       *(w.denominator for _, _, w in self.edges))
        self._topo = tuple(sorted(self._ids, key=lambda v: (t_map[v], v)))
        position = self._position = {v: i for i, v in enumerate(self._topo)}
        self._ticks = [t_map[v].numerator * (scale // t_map[v].denominator) for v in self._topo]
        # Sorted edges fill both adjacencies already in neighbour-id order.
        out = [[] for _ in self._topo]
        into = [[] for _ in self._topo]
        for src, dst, w in self.edges:
            ticks = w.numerator * (scale // w.denominator)
            out[position[src]].append((position[dst], ticks))
            into[position[dst]].append((position[src], ticks))
        self._out = tuple(map(tuple, out))
        self._in = tuple(map(tuple, into))
        reach, chron = [0] * len(self._topo), [0] * len(self._topo)
        for v in reversed(range(len(self._topo))):
            r, c = 1 << self._index[self._topo[v]], 0
            for w, weight in self._out[v]:
                r |= reach[w]
                c |= reach[w] if weight > 0 else chron[w]
            reach[v], chron[v] = r, c
        self._reach = dict(zip(self._topo, reach))
        self._chron = dict(zip(self._topo, chron))
        self.sufficiently_causally_connected = self._check_connectedness()

    # -- construction helpers -------------------------------------------------

    def _check_connectedness(self):
        if not self._ids:
            return False
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w, _ in self._out[v] + self._in[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(self._ids):
            return False
        return all(
            any(w > 0 for _, w in self._out[v]) or any(w > 0 for _, w in self._in[v])
            for v in range(len(self._ids))
        ) or len(self._ids) == 1

    # -- causal structure ------------------------------------------------------

    @property
    def vertices(self):
        return self._ids

    def points(self):
        return self._ids

    def contains(self, x):
        try:
            return x in self._t
        except TypeError:
            return False

    def time_of(self, v):
        return self._t[v]

    def causal_le(self, x, y):
        if x == y:
            return x in self._t
        return bool(self._reach[x] & (1 << self._index[y]))

    def _longest(self, src, positions, adjacency, table=None):
        """Longest-path ticks from position ``src`` (-1 where unreached),
        relaxed over ``positions``, a run of the topological order walked
        along ``adjacency``: ascending over ``_out`` for paths from src,
        descending over ``_in`` for paths to it.  Passing the returned
        ``table`` back with the next run of positions extends the pass."""
        if table is None:
            table = [-1] * len(self._topo)
            table[src] = 0
        for v in positions:
            base = table[v]
            if base >= 0:
                for w, weight in adjacency[v]:
                    if base + weight > table[w]:
                        table[w] = base + weight
        return table

    def tau(self, x, y):
        if x == y or not self.causal_le(x, y):
            return Fraction(0)
        src, dst = self._position[x], self._position[y]
        return Fraction(self._longest(src, range(src, dst), self._out)[dst], self._scale)

    def chronological(self, x, y):
        return x != y and bool(self._chron[x] & (1 << self._index[y]))

    def midpoint_scan(self, p, q, eps, c, tol):
        """The eps-tau-midpoint of p and q in the strip for c (None: no
        strip) whose time is nearest (T(p) + T(q)) / 2, ties by smallest id,
        as ``(y, tau(p, y), tau(y, q))``, or None.

        A pass forward from p and one backward to q give both halves of every
        vertex, and the scan compares ticks: |2 tau(p,y) - tau(p,q)| and
        |2 tau(y,q) - tau(p,q)| against 2 eps (strictly) or 2 tol (at eps = 0),
        T(y) against the strip ends moved in by the least integer
        m >= (c - tol)(T(q) - T(p)), and |2 T(y) - T(p) - T(q)|.  eps, tol and
        c - tol are read as their exact binary values.  Off the diamond
        J+(p) & J-(q) one half is 0, off by tau(p,q)/2; unless the tolerance
        admits that, the passes stop at the diamond's ends and only it is
        scanned.
        """
        n, scale, ticks = len(self._topo), self._scale, self._ticks
        a, b = self._position[p], self._position[q]
        forward = self._longest(a, range(a, b), self._out)
        backward = self._longest(b, range(b, a, -1), self._in)
        whole = max(forward[b], 0)
        if eps == 0:
            limit = math.floor(2 * scale * Fraction(tol))
        else:
            limit = math.ceil(2 * scale * Fraction(eps)) - 1
        if whole > limit:
            window = range(a, b + 1)
        else:
            self._longest(a, range(b, n), self._out, forward)
            self._longest(b, range(a, -1, -1), self._in, backward)
            window = range(n)
        lo, hi = -math.inf, math.inf
        if c is not None:
            least = Fraction(c - tol)
            gap = ticks[b] - ticks[a]
            if gap > 0:
                m = math.ceil(least * gap)
                lo, hi = ticks[a] + m, ticks[b] - m
            elif least > 0:
                return None
        center = ticks[a] + ticks[b]
        best = None
        for v in window:
            left, right = max(forward[v], 0), max(backward[v], 0)
            if (abs(2 * left - whole) <= limit and abs(2 * right - whole) <= limit
                    and lo <= ticks[v] <= hi):
                key = (abs(2 * ticks[v] - center), self._topo[v])
                if best is None or key < best[0]:
                    best = key, left, right
        if best is None:
            return None
        (_, y), left, right = best
        return y, Fraction(left, scale), Fraction(right, scale)

    def limit_point(self, points):
        if not points:
            raise NotComplete("empty sequence has no limit")
        if len(points) == 1 or points[-1] == points[-2]:
            return points[-1]
        raise NotComplete("dyadic refinement did not stabilize on the finite backend")

    def sample_points(self, rng, count):
        idx = rng.integers(0, len(self._ids), size=count)
        return [self._ids[i] for i in idx]

    def causal_pairs(self):
        """Pairs x <= y with x != y, in (x, y) id order, addressable by index."""
        return _MaskRows(self._ids, [((x,), self._reach[x] & ~(1 << self._index[x]))
                                     for x in self._ids])

    def chronological_pairs(self):
        """Pairs x << y, in (x, y) id order, addressable by index."""
        return _MaskRows(self._ids, [((x,), self._chron[x]) for x in self._ids])

    def causal_chains(self):
        """Triples x <= y <= z, in (x, y, z) id order, addressable by index."""
        return _MaskRows(self._ids, [((x,), self._reach[x]) for x in self._ids],
                         [self._reach[x] for x in self._ids])

    def sample_causal_pairs(self, rng, count):
        return _sample_from(self.causal_pairs(), rng, count)

    def sample_chronological_pairs(self, rng, count):
        return _sample_from(self.chronological_pairs(), rng, count)

    def sample_causal_chains(self, rng, count):
        return _sample_from(self.causal_chains(), rng, count)

    def out_edges(self, v):
        return tuple(self._topo[w] for w, _ in self._out[self._position[v]])

    def in_edges(self, v):
        return tuple(self._topo[w] for w, _ in self._in[self._position[v]])

    def directed_path(self, x, y):
        """Some directed edge path x -> y (smallest-id greedy), or None."""
        if x == y:
            return [x]
        if not self.causal_le(x, y):
            return None
        path = [x]
        while path[-1] != y:
            path.append(next(w for w in self.out_edges(path[-1])
                             if w == y or self.causal_le(w, y)))
        return path

    @cached_property
    def _time_graph(self):
        """Each position's out- then in-neighbours with the |dT| ticks to them."""
        ticks = self._ticks
        return [[(w, abs(ticks[w] - ticks[v])) for w, _ in self._out[v] + self._in[v]]
                for v in range(len(ticks))]

    def time_graph_distance(self, x, y, with_path=False):
        """A* over the symmetrized edge set with weights |T(b) - T(a)| for
        the stored vertex times T, summed in ticks.

        The potential |T(v) - T(y)| is consistent, since a step's cost |dT|
        bounds the change of potential across it (and d_T >= |dT|,
        Sormani-Vega), so y leaves the heap first at its exact distance.
        Returns that distance (and optionally one optimal vertex path), or
        None when no piecewise causal walk joins x and y.
        """
        if x not in self._t or y not in self._t:
            raise ValueError("unknown vertex")
        adjacency, ticks = self._time_graph, self._ticks
        src, dst = self._position[x], self._position[y]
        goal = ticks[dst]
        dist = [math.inf] * len(ticks)
        prev = [None] * len(ticks)
        dist[src] = 0
        # Entries (estimate, potential, position): on equal estimates the
        # vertex nearer y in time goes first, so a causal pair, whose every
        # monotone path is optimal, is walked straight through.
        heap = [(abs(ticks[src] - goal), abs(ticks[src] - goal), src)]
        pop, push = heapq.heappop, heapq.heappush
        while heap:
            f, h, v = pop(heap)
            if v == dst:
                break
            d = dist[v]
            if f - h > d:
                continue
            for w, step in adjacency[v]:
                cand = d + step
                if cand < dist[w]:
                    dist[w] = cand
                    prev[w] = v
                    h = abs(ticks[w] - goal)
                    push(heap, (cand + h, h, w))
        else:
            return None
        value = Fraction(dist[dst], self._scale)
        if not with_path:
            return value
        path = [dst]
        while path[-1] != src:
            path.append(prev[path[-1]])
        return value, [self._topo[v] for v in reversed(path)]


class _MaskRows(Sequence):
    """The tuples ``prefix + (ids[i],)`` for each row ``(prefix, mask)`` and
    each set bit i of its mask, in row order, then bit order.  With
    ``inner``, one mask per bit index, bit i stands instead for the tuples
    ``prefix + (ids[i], ids[j])``, one per set bit j of ``inner[i]``.

    Indexing bisects the running item counts of the rows, then of the bits
    of one row; a count is a popcount of a prefix of the mask, weighted by
    the items per bit through one plane mask per binary digit of that
    weight.  So a sample is drawn without listing the tuples or walking a
    row's bits, and a view over all chains of n vertices needs O(n) masks.
    """

    def __init__(self, ids, rows, inner=None):
        self._ids, self._rows, self._inner = ids, rows, inner
        weights = [1] * len(ids) if inner is None else [m.bit_count() for m in inner]
        # Plane k has bit i set when the weight of bit i has binary digit k.
        self._planes = [int("".join("1" if w >> k & 1 else "0" for w in reversed(weights)), 2)
                        for k in range(max(weights, default=0).bit_length())]
        self._starts = [0, *accumulate(self._count(mask) for _, mask in rows)]

    def _count(self, mask):
        return sum((mask & plane).bit_count() << k for k, plane in enumerate(self._planes))

    def __len__(self):
        return self._starts[-1]

    def __getitem__(self, index):
        if not 0 <= index < len(self):
            raise IndexError("row index out of range")
        row = bisect_right(self._starts, index) - 1
        prefix, mask = self._rows[row]
        i, offset = _select(mask, index - self._starts[row], self._count)
        if self._inner is None:
            return prefix + (self._ids[i],)
        j, _ = _select(self._inner[i], offset, int.bit_count)
        return prefix + (self._ids[i], self._ids[j])


def _select(mask, offset, count):
    """The set bit i of ``mask`` whose items hold item ``offset`` of the
    mask, and the offset among them: i is the largest index whose lower
    bits count at most ``offset``, found by bisection."""
    lo, hi = 0, mask.bit_length()
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if count(mask & ((1 << mid) - 1)) <= offset:
            lo = mid
        else:
            hi = mid
    return lo, offset - count(mask & ((1 << lo) - 1))


def _sample_from(items, rng, count):
    if len(items) <= count:
        return list(items)
    idx = rng.choice(len(items), size=count, replace=False)
    return [items[i] for i in sorted(idx)]


# -- time-function bundles ----------------------------------------------------


def _causal_dominating_metric(x, y):
    # max(|dt|, ||dx||) equals |dt| on causal pairs, so it is dominated by
    # coordinate-time increments there (with equality).
    return max(abs(y[0] - x[0]), math.dist(x[1:], y[1:]))


def canonical_time_bundle(space: MinkowskiSpace) -> FlatTimeBundle:
    """Coordinate time t with a single global anti-Lipschitz witness."""
    witness = AntiLipschitzWitness(
        label="global",
        contains=lambda p: True,
        metric=_causal_dominating_metric,
    )
    return FlatTimeBundle(coordinate_time, coordinate_time, [witness])


def cubic_time_bundle(space: MinkowskiSpace, half_width: float = 0.5) -> FlatTimeBundle:
    """Coordinate time cubed, f(t) = t^3, inverted by the real cube root.

    f flattens near t = 0 and loses anti-Lipschitz there, inside the witness
    strip |t| <= half_width; the slope 3t^2 has its one minimum, 0 at t = 0.
    """
    witness = AntiLipschitzWitness(
        label=f"strip(|t|<={half_width})",
        contains=lambda p: abs(p[0]) <= half_width,
        metric=_causal_dominating_metric,
    )
    # math.cbrt needs Python 3.11.
    return FlatTimeBundle(lambda t: t ** 3,
                          lambda level: math.copysign(abs(level) ** (1 / 3), level),
                          [witness], slope_minima=((0.0, 0.0),))


def causet_time_bundle(space: CausalSetSpace) -> TimeFunctionBundle:
    """The stored vertex times, witnessed by the |dT| graph metric on the whole set."""
    def metric(x, y):
        d = space.time_graph_distance(x, y)
        return d if d is not None else math.inf

    witness = AntiLipschitzWitness(label="whole-set", contains=lambda v: True, metric=metric)
    return TimeFunctionBundle(space.time_of, [witness])


# -- sprinkling ----------------------------------------------------------------

# The most points a sprinkle may expect.  Sprinkle plus `certify` (seed 42,
# c = 0.1, epsilon_hat = 0.1) on the unit diamond took 11.5-17 s over three
# runs and 136 MB at density 20,000 (n = 10,087), and 28.8 s and 319 MB in
# one run at density 40,000 (n = 20,122), on a shared 2-core machine.  Both
# grow at most as n^2: the two reach bitmasks take n^2/4 bytes, and the link
# sweep compares O(n^2) pairs in arrays.
MAX_SPRINKLE_POINTS = 20_000


def sprinkle_causet(diamond_corners, density: float, seed: int) -> CausalSetSpace:
    """Poisson sprinkle of the causal diamond between two corners of R^{1,1}.

    Point count is Poisson(density * area); points are uniform in the
    diamond (sampled exactly in null coordinates), and the two corners are
    always vertices.  Edges are the links of the Minkowski causal order (its
    Hasse diagram: related pairs with no sprinkled point between them),
    found by a sweep in (t, x) order that decides each pair with the float
    test of ``MinkowskiSpace.causal_le``, and weighted by the Minkowski time
    separation of their endpoints; vertex time is the t coordinate.  Raises
    BudgetExceeded before drawing when density * area exceeds
    ``MAX_SPRINKLE_POINTS``.
    """
    if density <= 0:
        raise ValueError("density must be positive")
    if len(diamond_corners) != 2:
        raise ValueError("a causal diamond needs exactly two corners")
    p, q = (tuple(map(float, c)) for c in diamond_corners)
    if len(p) != 2 or len(q) != 2:
        raise ValueError("sprinkling is implemented for R^{1,1} corners")
    mink = MinkowskiSpace(1)
    if not mink.chronological(p, q):
        raise ValueError("diamond corners must be chronologically related")

    # Null coordinates turn the diamond into an axis-aligned rectangle.
    u_lo, u_hi = p[0] - p[1], q[0] - q[1]
    v_lo, v_hi = p[0] + p[1], q[0] + q[1]
    area = (u_hi - u_lo) * (v_hi - v_lo) / 2.0
    if density * area > MAX_SPRINKLE_POINTS:
        raise BudgetExceeded(f"density {density:g} on a diamond of area {area:g} expects "
                             f"{density * area:g} points, over the limit of "
                             f"{MAX_SPRINKLE_POINTS}")

    rng = np.random.default_rng(seed)
    n = int(rng.poisson(density * area))
    us = rng.uniform(u_lo, u_hi, size=n)
    vs = rng.uniform(v_lo, v_hi, size=n)
    pts = sorted({((u + v) / 2.0, (v - u) / 2.0) for u, v in zip(us, vs)} | {p, q})

    width = max(3, len(str(len(pts) - 1)))
    ids = [f"v{i:0{width}d}" for i in range(len(pts))]
    vertices = [(vid, Fraction(pt[0])) for vid, pt in zip(ids, pts)]
    edges = [(ids[i], ids[j], Fraction(mink.tau(pts[i], pts[j]))) for i, j in _links(pts)]
    space = CausalSetSpace(vertices, edges, name=f"sprinkle(d={density},s={seed})")
    space.coordinates = {vid: pt for vid, pt in zip(ids, pts)}
    return space


def _links(pts):
    """The index pairs (i, j) of the links among points of R^{1,1} sorted by
    (t, x), i ascending, then j.

    In that order every point of a's causal future comes after a, and every
    point between a and b comes before b, so the first later point of a's
    future is a link, and so is each later one outside the futures of the
    links found before it.  Each sweep step keeps the candidates outside the
    new link's future with one array comparison, dt >= |dx| in the float
    operations of MinkowskiSpace.causal_le, so every pair is decided exactly
    as that call decides it.
    """
    t = np.array([pt[0] for pt in pts])
    x = np.array([pt[1] for pt in pts])
    for i in range(len(pts)):
        later = np.flatnonzero(t[i + 1:] - t[i] >= np.abs(x[i + 1:] - x[i])) + (i + 1)
        while later.size:
            j, later = int(later[0]), later[1:]
            yield i, j
            later = later[t[later] - t[j] < np.abs(x[later] - x[j])]


# -- persistence ----------------------------------------------------------------


def _encode_rational(value):
    """A float when it holds the value exactly (as for every sprinkle), else "p/q"."""
    as_float = float(value)
    return as_float if as_float == value else str(value)


def _parse_rational(text):
    """A "p/q" or integer cell exactly; any other cell as a float, as decimal
    files always read."""
    exact = "/" in text or text.strip().lstrip("+-").isdigit()
    return Fraction(text) if exact else float(text)


def save_causet_json(space: CausalSetSpace, path):
    payload = {
        "vertices": [{"id": v, "T": _encode_rational(space.time_of(v))}
                     for v in space.vertices],
        "edges": [{"src": s, "dst": d, "tau": _encode_rational(w)}
                  for s, d, w in space.edges],
    }
    atomic_write(path, json_chunks(payload))


def load_causet_json(path) -> CausalSetSpace:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    vertices = [(v["id"], v["T"]) for v in payload["vertices"]]
    edges = [(e["src"], e["dst"], e["tau"]) for e in payload["edges"]]
    return CausalSetSpace(vertices, edges)


def save_causet_csv(space: CausalSetSpace, vertices_path, edges_path):
    atomic_write(vertices_path, csv_text(
        ["id", "T"], ([v, _encode_rational(space.time_of(v))] for v in space.vertices)))
    atomic_write(edges_path, csv_text(
        ["src", "dst", "tau"], ([s, d, _encode_rational(w)] for s, d, w in space.edges)))


def load_causet_csv(vertices_path, edges_path) -> CausalSetSpace:
    vertices = [(v, _parse_rational(t)) for v, t in csv_rows(vertices_path, ["id", "T"])]
    edges = [(s, d, _parse_rational(w))
             for s, d, w in csv_rows(edges_path, ["src", "dst", "tau"])]
    return CausalSetSpace(vertices, edges)
