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

from .core import (AntiLipschitzWitness, FlatTimeBundle, Space, TimeFunctionBundle,
                   atomic_write, coordinate_time, csv_rows, csv_text, json_text)
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


class PlaneFrame:
    """The 2-plane spanned by the time axis and the spatial direction p -> q.

    Plane point (t, s) sits at time t, a distance s from p along that direction.
    """

    def __init__(self, p, q):
        self.base = p
        dxv = [b - a for a, b in zip(p[1:], q[1:])]
        self.span = math.hypot(*dxv)
        if self.span == 0.0:
            self.unit = (1.0,) + (0.0,) * (len(dxv) - 1)
        else:
            self.unit = tuple(d / self.span for d in dxv)
        self.p_plane = (p[0], 0.0)
        self.q_plane = (q[0], self.span)

    def embed(self, t, s):
        return (t, *(a + s * u for a, u in zip(self.base[1:], self.unit)))

    def midpoint(self):
        """The affine midpoint (p+q)/2: the unique exact tau-midpoint on flat space."""
        return self.embed((self.p_plane[0] + self.q_plane[0]) / 2.0, self.span / 2.0)


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
    topological order.  Per vertex x, the bitmask
    ``_reach[x]`` holds every y with x <= y and ``_chron[x]`` every y with
    x << y (bit i is the i-th sorted id); related pairs and chains are
    indexed views over them.  Vertex times and weights are exact rationals;
    one scale, the lcm of their denominators, makes each a whole number of
    ticks, so tau and the null distance of the stored times (the set's time
    function) are integer sums, made Fractions again only when returned.
    The only post-construction state is a per-source memo of longest-path
    tables and the |dT| tick adjacency, caches of pure query results.
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

        # Sorted edges fill both adjacencies already in neighbour-id order.
        self.edges = tuple(sorted(edge_list))
        self._scale = math.lcm(*(t.denominator for t in t_map.values()),
                               *(w.denominator for _, _, w in self.edges))
        out = {v: [] for v in self._ids}
        into = {v: [] for v in self._ids}
        for src, dst, w in self.edges:
            ticks = w.numerator * (self._scale // w.denominator)
            out[src].append((dst, ticks))
            into[dst].append((src, ticks))
        self._out = {v: tuple(ws) for v, ws in out.items()}
        self._in = {v: tuple(ws) for v, ws in into.items()}
        self._topo = tuple(sorted(self._ids, key=lambda v: (t_map[v], v)))
        self._position = {v: i for i, v in enumerate(self._topo)}
        self._reach, self._chron = {}, {}
        for v in reversed(self._topo):
            reach, chron = 1 << self._index[v], 0
            for w, weight in self._out[v]:
                reach |= self._reach[w]
                chron |= self._reach[w] if weight > 0 else self._chron[w]
            self._reach[v], self._chron[v] = reach, chron
        self._longest_cache = {}
        self.sufficiently_causally_connected = self._check_connectedness()

    # -- construction helpers -------------------------------------------------

    def _check_connectedness(self):
        if not self._ids:
            return False
        seen = {self._ids[0]}
        stack = [self._ids[0]]
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
            for v in self._ids
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

    def _longest_from(self, src):
        """Longest-path ticks from src, in one pass over the topological order from src on."""
        cached = self._longest_cache.get(src)
        if cached is not None:
            return cached
        dist = {src: 0}
        for v in self._topo[self._position[src]:]:
            base = dist.get(v)
            if base is None:
                continue
            for w, weight in self._out[v]:
                if base + weight > dist.get(w, -1):
                    dist[w] = base + weight
        self._longest_cache[src] = dist
        return dist

    def tau(self, x, y):
        if x == y:
            return Fraction(0)
        return Fraction(self._longest_from(x).get(y, 0), self._scale)

    def chronological(self, x, y):
        return x != y and bool(self._chron[x] & (1 << self._index[y]))

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
        return _MaskRows(self._ids, [((x, self._ids[i]), self._reach[self._ids[i]])
                                     for x in self._ids for i in _bits(self._reach[x])])

    def causal_diamond(self, p, q):
        """The vertices y with p <= y <= q, in id order."""
        q_bit = 1 << self._index[q]
        return [self._ids[i] for i in _bits(self._reach[p])
                if self._reach[self._ids[i]] & q_bit]

    def sample_causal_pairs(self, rng, count):
        return _sample_from(self.causal_pairs(), rng, count)

    def sample_chronological_pairs(self, rng, count):
        return _sample_from(self.chronological_pairs(), rng, count)

    def sample_causal_chains(self, rng, count):
        return _sample_from(self.causal_chains(), rng, count)

    def out_edges(self, v):
        return tuple(w for w, _ in self._out[v])

    def in_edges(self, v):
        return tuple(w for w, _ in self._in[v])

    def directed_path(self, x, y):
        """Some directed edge path x -> y (smallest-id greedy), or None."""
        if x == y:
            return [x]
        if not self.causal_le(x, y):
            return None
        path = [x]
        v = x
        while v != y:
            step = next(w for w, _ in self._out[v]
                        if w == y or self.causal_le(w, y))
            path.append(step)
            v = step
        return path

    @cached_property
    def _time_graph(self):
        """Each vertex's out- then in-neighbours with the |dT| ticks to them."""
        ticks = {v: t.numerator * (self._scale // t.denominator) for v, t in self._t.items()}
        return {v: [(w, abs(ticks[w] - ticks[v])) for w, _ in self._out[v] + self._in[v]]
                for v in self._ids}

    def time_graph_distance(self, x, y, with_path=False):
        """Dijkstra over the symmetrized edge set with weights |T(b) - T(a)|
        for the stored vertex times T, summed in ticks.

        Returns the exact distance (and optionally one optimal vertex path),
        or None when no piecewise causal walk joins x and y.
        """
        if x not in self._t or y not in self._t:
            raise ValueError("unknown vertex")
        adjacency = self._time_graph
        dist = {x: 0}
        prev = {}
        heap = [(0, x)]
        settled = set()
        while heap:
            d, v = heapq.heappop(heap)
            if v in settled:
                continue
            settled.add(v)
            if v == y:
                break
            for w, step in adjacency[v]:
                cand = d + step
                if w not in dist or cand < dist[w]:
                    dist[w] = cand
                    prev[w] = v
                    heapq.heappush(heap, (cand, w))
        if y not in settled:
            return None
        if not with_path:
            return Fraction(dist[y], self._scale)
        path = [y]
        while path[-1] != x:
            path.append(prev[path[-1]])
        path.reverse()
        return Fraction(dist[y], self._scale), path


class _MaskRows(Sequence):
    """The tuples ``prefix + (ids[i],)`` for each row ``(prefix, mask)`` and
    each set bit i of its mask, in row order, then bit order.

    Indexing bisects the running bit counts of the rows, so a sample is drawn
    without listing the tuples.
    """

    def __init__(self, ids, rows):
        self._ids = ids
        self._rows = rows
        self._starts = [0, *accumulate(mask.bit_count() for _, mask in rows)]

    def __len__(self):
        return self._starts[-1]

    def __getitem__(self, index):
        if not 0 <= index < len(self):
            raise IndexError("row index out of range")
        row = bisect_right(self._starts, index) - 1
        prefix, mask = self._rows[row]
        for _ in range(index - self._starts[row]):
            mask &= mask - 1
        return prefix + (self._ids[(mask & -mask).bit_length() - 1],)


def _bits(mask):
    """The indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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

# The most points a sprinkle may expect.  Time grows about as n^1.9: density
# 10,000 on the unit diamond (n = 5,062, 35,897 links) took 21 s and 68 MB on
# a shared 2-core machine, so n = 10,000 is near 80 s.
MAX_SPRINKLE_POINTS = 10_000


def sprinkle_causet(diamond_corners, density: float, seed: int) -> CausalSetSpace:
    """Poisson sprinkle of the causal diamond between two corners of R^{1,1}.

    Point count is Poisson(density * area); points are uniform in the
    diamond (sampled exactly in null coordinates), and the two corners are
    always vertices.  Edges are the links of the Minkowski causal order (its
    Hasse diagram: related pairs with no sprinkled point between them),
    weighted by the Minkowski time separation of their endpoints; vertex time
    is the t coordinate.  Raises
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

    import numpy as np

    rng = np.random.default_rng(seed)
    n = int(rng.poisson(density * area))
    us = rng.uniform(u_lo, u_hi, size=n)
    vs = rng.uniform(v_lo, v_hi, size=n)
    pts = sorted({((u + v) / 2.0, (v - u) / 2.0) for u, v in zip(us, vs)} | {p, q})

    width = max(3, len(str(len(pts) - 1)))
    ids = [f"v{i:0{width}d}" for i in range(len(pts))]
    vertices = [(vid, Fraction(pt[0])) for vid, pt in zip(ids, pts)]
    # Sorted by (t, x), every point of a's causal future comes after a, and
    # every point between a and b comes before b, so each later point that no
    # link of a kept so far precedes is itself a link.
    edges = []
    for i, a in enumerate(pts):
        links = []
        for j in range(i + 1, len(pts)):
            b = pts[j]
            if mink.causal_le(a, b) and not any(mink.causal_le(c, b) for c in links):
                links.append(b)
                edges.append((ids[i], ids[j], Fraction(mink.tau(a, b))))
    space = CausalSetSpace(vertices, edges, name=f"sprinkle(d={density},s={seed})")
    space.coordinates = {vid: pt for vid, pt in zip(ids, pts)}
    return space


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
    atomic_write(path, json_text(payload))


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
