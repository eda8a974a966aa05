"""Causal-set query engine against brute force on random weighted DAGs.

The DAGs mix zero-weight edges with non-dyadic weights and times (thirds,
sevenths), and their vertex ids are shuffled against the time order, so the
id-ordered bitmasks, the integer-tick longest-path passes, the A* null
distance and the two-pass midpoint scan are each compared with the plain
enumeration or the Fraction arithmetic they replace.  The sprinkle's link
sweep is compared with the pairwise link scan it replaced.
"""

import heapq
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from causalgeo import (CausalSetSpace, MinkowskiSpace, TimeFunctionBundle,
                       causet_time_bundle, check_anti_lipschitz, check_reverse_triangle,
                       is_eps_tau_midpoint, null_distance, null_distance_oracle,
                       sprinkle_causet)
from causalgeo.errors import NotConnected, UnsupportedBackend
from causalgeo.midpoints import _search_rows, _search_with_taus
from causalgeo.nulldist import _graph
from causalgeo.spaces import _links
from conftest import weighted_dags


def reference_longest(space, x):
    """Longest-path Fractions from x, relaxing the edges in time order."""
    dist = {x: Fraction(0)}
    for src, dst, w in sorted(space.edges, key=lambda e: space.time_of(e[0])):
        if src in dist and (dst not in dist or dist[src] + w > dist[dst]):
            dist[dst] = dist[src] + w
    return dist


def reference_dijkstra(space, x, y):
    """Dijkstra over Fractions, relaxing neighbours in out-then-in edge order."""
    dist = {x: Fraction(0)}
    prev = {}
    heap = [(Fraction(0), x)]
    settled = set()
    while heap:
        d, v = heapq.heappop(heap)
        if v in settled:
            continue
        settled.add(v)
        if v == y:
            break
        for w in space.out_edges(v) + space.in_edges(v):
            cand = d + abs(space.time_of(w) - space.time_of(v))
            if w not in dist or cand < dist[w]:
                dist[w] = cand
                prev[w] = v
                heapq.heappush(heap, (cand, w))
    if y not in settled:
        return None
    path = [y]
    while path[-1] != x:
        path.append(prev[path[-1]])
    return dist[y], path[::-1]


def assert_same_sequence(seq, expected):
    assert len(seq) == len(expected)
    assert list(seq) == expected
    assert [seq[i] for i in range(len(seq))] == expected
    with pytest.raises(IndexError):
        seq[len(expected)]


class TestIndexedRelations:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(weighted_dags())
    def test_pairs_and_chains_match_enumeration(self, space):
        ids = space.vertices
        assert_same_sequence(space.causal_pairs(), [
            (x, y) for x in ids for y in ids if x != y and space.causal_le(x, y)])
        assert_same_sequence(space.chronological_pairs(), [
            (x, y) for x in ids for y in ids
            if x != y and space.causal_le(x, y) and space.tau(x, y) > 0])
        assert_same_sequence(space.causal_chains(), [
            (x, y, z) for x in ids for y in ids for z in ids
            if space.causal_le(x, y) and space.causal_le(y, z)])

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(weighted_dags())
    def test_chronological_is_causal_with_positive_tau(self, space):
        for x in space.vertices:
            for y in space.vertices:
                assert space.chronological(x, y) == (
                    space.causal_le(x, y) and space.tau(x, y) > 0), (x, y)


class TestIntegerTicks:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(weighted_dags())
    def test_tau_matches_fraction_longest_paths(self, space):
        for x in space.vertices:
            want = reference_longest(space, x)
            for y in space.vertices:
                got = space.tau(x, y)
                assert isinstance(got, Fraction)
                assert got == want.get(y, 0), (x, y)


class TestIntegerDijkstra:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(weighted_dags())
    def test_value_and_path_match_fraction_dijkstra(self, space):
        # A* may break ties between optimal walks differently from Dijkstra,
        # so the path need only be an edge walk from x to y that attains the
        # value.  Times scaled by 7/3 change the tick scale and scale every
        # d_T by 7/3.
        thirds = CausalSetSpace([(v, space.time_of(v) * Fraction(7, 3)) for v in space.vertices],
                                space.edges)
        for x in space.vertices:
            for y in space.vertices:
                for s in (space, thirds):
                    want = reference_dijkstra(s, x, y)
                    got = s.time_graph_distance(x, y, with_path=True)
                    assert (got is None) == (want is None)
                    if want is None:
                        continue
                    value, path = got
                    assert isinstance(value, Fraction)
                    assert value == want[0]
                    assert s.time_graph_distance(x, y) == value
                    assert path[0] == x and path[-1] == y
                    assert all(b in s.out_edges(a) + s.in_edges(a)
                               for a, b in zip(path, path[1:]))
                    assert sum(abs(s.time_of(b) - s.time_of(a))
                               for a, b in zip(path, path[1:])) == value
                original = space.time_graph_distance(x, y)
                if original is not None:
                    assert thirds.time_graph_distance(x, y) == original * Fraction(7, 3)

    def test_graph_route_refuses_other_time_functions(self):
        # a and b are unrelated, so their null distance takes the graph route.
        space = CausalSetSpace([("p", 0), ("a", 1), ("b", 2)], [("p", "a", 1), ("p", "b", 1)])
        doubled = TimeFunctionBundle(lambda v: 2 * space.time_of(v),
                                     causet_time_bundle(space).witnesses)
        assert null_distance(space, causet_time_bundle(space), "a", "b").value == 3
        with pytest.raises(UnsupportedBackend):
            null_distance(space, doubled, "a", "b")

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(weighted_dags(max_vertices=7))
    def test_graph_null_distance_matches_exhaustive_walks(self, space):
        bundle = causet_time_bundle(space)
        for x in space.vertices:
            for y in space.vertices:
                try:
                    result = _graph(space, bundle, x, y)
                except NotConnected:
                    graph = None
                else:
                    result.witness_curve.validate()
                    graph = result.value
                try:
                    oracle = null_distance_oracle(space, bundle, x, y)
                except NotConnected:
                    oracle = None
                assert graph == oracle, (x, y)


def full_scan_midpoint(space, bundle, p, q, eps, c):
    t_p, t_q = bundle.time(p), bundle.time(q)
    center = (t_p + t_q) / 2

    def in_strip(y):
        if c is None:
            return True
        return c <= (bundle.time(y) - t_p) / (t_q - t_p) <= 1 - c

    cands = [y for y in space.points()
             if is_eps_tau_midpoint(space, p, q, y, eps, 0) and in_strip(y)]
    if not cands:
        return None
    return min(cands, key=lambda y: (abs(bundle.time(y) - center), y))


def search(space, bundle, p, q, eps, c):
    """The point the exact midpoint search selects, or None."""
    found = _search_with_taus(space, bundle, p, q, eps, c, 0, space.tau(p, q))
    return None if found is None else found[0]


class TestPrunedMidpointSearch:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(weighted_dags(), st.sampled_from((0, 0.25, 0.5, 1.0, 1.5)),
           st.sampled_from((None, 0.1, 0.25, 0.5)))
    def test_matches_full_scan(self, space, eps_hat, c):
        bundle = causet_time_bundle(space)
        for p, q in space.chronological_pairs():
            # eps_hat above 1/2 puts the tolerance above tau(p,q)/2, where
            # points off the diamond are feasible too.
            eps = float(space.tau(p, q)) * eps_hat
            assert (search(space, bundle, p, q, eps, c)
                    == full_scan_midpoint(space, bundle, p, q, eps, c)), (p, q)
        # The rows search of a dyadic level shares one absolute eps, here
        # eps_hat itself.  A collapsed row comes first and a row that is not
        # chronological in the middle; each row must be its one-pair search,
        # up to the first row without a midpoint, where the search stops.
        points, pairs = list(space.points()), list(space.chronological_pairs())
        unrelated = [(a, b) for a in points for b in points
                     if a != b and not space.chronological(a, b)]
        half = len(pairs) // 2
        rows = [(points[0], points[0])] + pairs[:half] + unrelated[:1] + pairs[half:]
        expected = [(x, 0, 0) if x == z
                    else _search_with_taus(space, bundle, x, z, eps_hat, c, 0, space.tau(x, z))
                    if space.chronological(x, z) else None
                    for x, z in rows]
        first_miss = next((k for k, one in enumerate(expected) if one is None), len(rows))
        ys, left, right, found = _search_rows(space, bundle, [x for x, _ in rows],
                                              [z for _, z in rows],
                                              [space.tau(x, z) for x, z in rows], eps_hat, c, 0)
        assert found.tolist() == [k < first_miss for k in range(len(rows))]
        assert list(zip(ys, left, right)) == expected[:first_miss]

    def test_off_diamond_point_wins_when_tolerance_exceeds_half(self):
        # r is unrelated to p and q, so both of its half-separations are
        # |0 - 1/2|; with eps = 1 it is feasible and sits at the time centre.
        space = CausalSetSpace([("p", 0), ("r", Fraction(1, 2)), ("q", 1)],
                               [("p", "q", 1)])
        bundle = causet_time_bundle(space)
        assert not space.causal_le("p", "r") and not space.causal_le("r", "q")
        assert search(space, bundle, "p", "q", 1.0, None) == "r"
        assert search(space, bundle, "p", "q", 0.5, None) is None


def fraction_scan(space, longest, p, q, eps, c, tol):
    """``(y, tau(p,y), tau(y,q))`` from the Fraction inequalities over every
    vertex, with the nearest time to the centre first and ties by id;
    ``longest[x]`` holds the reference longest paths from x."""
    t_p, t_q = space.time_of(p), space.time_of(q)
    whole = Fraction(longest[p].get(q, 0))
    found = []
    for y in space.vertices:
        left, right = longest[p].get(y, 0), longest[y].get(q, 0)
        devs = (abs(left - whole / 2), abs(right - whole / 2))
        within = all(d <= tol for d in devs) if eps == 0 else all(d < eps for d in devs)
        u = (space.time_of(y) - t_p) / (t_q - t_p) if t_q > t_p else None
        margin = 0 if u is None else min(u, 1 - u)
        if within and (c is None or margin >= c - tol):
            found.append((abs(space.time_of(y) - (t_p + t_q) / 2), y, left, right))
    return min(found)[1:] if found else None


class TestTwoPassScan:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(weighted_dags(max_vertices=7), st.sampled_from((None, 0.1, 0.25, 0.5)),
           st.integers(0, 2**16))
    def test_matches_fraction_scan_at_exact_ties(self, space, c, pick):
        # The tolerances include every half-difference |tau(p,y) - tau(p,q)/2|
        # exactly, as a Fraction and as the float nearest it, so a scan that
        # confused < with <= or rounded a tolerance would select differently.
        ids = space.vertices
        longest = {x: reference_longest(space, x) for x in ids}
        for p in ids:
            for q in ids:
                whole = space.tau(p, q)
                diffs = sorted({abs(space.tau(p, y) - whole / 2) for y in ids}
                               | {abs(space.tau(y, q) - whole / 2) for y in ids})
                tol = diffs[pick % len(diffs)]
                for eps in (0, *diffs, *map(float, diffs)):
                    for t in ((0, tol, float(tol)) if eps == 0 else (tol,)):
                        assert (space.midpoint_scan(p, q, eps, c, t)
                                == fraction_scan(space, longest, p, q, eps, c, t)), (p, q, eps, t)

    @pytest.mark.parametrize("weight, want", [(5, ("p", 0, 1)), (1, ("a", 0, 1))])
    def test_vertex_before_p_is_scanned_when_eps_exceeds_half(self, weight, want):
        # eps = 1 > tau(p,q)/2 admits points off the diamond.  a ties p in
        # time, so it precedes p in the topological order and wins by id
        # unless its own tau(a,q) keeps it out of the lens.
        space = CausalSetSpace([("p", 0), ("a", 0), ("q", 1)],
                               [("p", "q", 1), ("a", "q", weight)])
        assert space.midpoint_scan("p", "q", 1.0, None, 0) == want

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(weighted_dags())
    def test_passes_are_tau_from_and_to_every_vertex(self, space):
        order, n = space._position, len(space.vertices)
        longest = {x: reference_longest(space, x) for x in space.vertices}
        for x in space.vertices:
            forward = space._longest(order[x], range(order[x], n), space._out)
            backward = space._longest(order[x], range(order[x], -1, -1), space._in)
            for y in space.vertices:
                assert Fraction(max(forward[order[y]], 0), space._scale) == longest[x].get(y, 0)
                assert Fraction(max(backward[order[y]], 0), space._scale) == longest[y].get(x, 0)


def pairwise_links(pts):
    """The link scan the sweep replaced: each later point related to a and
    to none of a's links found so far, by MinkowskiSpace.causal_le."""
    mink = MinkowskiSpace(1)
    edges = []
    for i, a in enumerate(pts):
        links = []
        for j in range(i + 1, len(pts)):
            b = pts[j]
            if mink.causal_le(a, b) and not any(mink.causal_le(c, b) for c in links):
                links.append(b)
                edges.append((i, j, Fraction(mink.tau(a, b))))
    return edges


class TestLinkSweep:
    @pytest.mark.parametrize("corners, density", [
        (((0.0, 0.0), (1.0, 0.0)), 100),
        (((0.0, 0.0), (1.0, 0.0)), 400),
        (((0.1, -0.3), (1.7, 0.2)), 150),
        (((-1.0, 0.25), (0.5, 0.5)), 300),
    ])
    @pytest.mark.parametrize("seed", [1, 42, 2023])
    def test_edges_equal_pairwise_scan(self, corners, density, seed):
        space = sprinkle_causet(corners, density, seed)
        pts = sorted(space.coordinates.values())
        index = {space.coordinates[v]: v for v in space.vertices}
        want = [(index[pts[i]], index[pts[j]], w) for i, j, w in pairwise_links(pts)]
        assert list(space.edges) == sorted(want)

    def test_rounding_decides_null_pairs_as_causal_le_does(self):
        # On a lattice of tenths most null pairs are decided by rounding:
        # 0.1 * k - 0.1 * m is rarely the float that |dx| rounds to.
        pts = sorted((0.1 * k, 0.1 * m - 0.6) for k in range(13) for m in range(13))
        assert list(_links(pts)) == [(i, j) for i, j, _ in pairwise_links(pts)]


class TestComplexityGuard:
    def test_certificates_make_fewer_than_n_squared_order_tests(self, monkeypatch):
        space = sprinkle_causet(((0.0, 0.0), (1.0, 0.0)), 200, 42)
        n = len(space.vertices)
        assert n == 111
        calls = []
        plain = CausalSetSpace.causal_le

        def counted(self, x, y):
            calls.append(None)
            return plain(self, x, y)

        monkeypatch.setattr(CausalSetSpace, "causal_le", counted)
        bundle = causet_time_bundle(space)
        assert check_reverse_triangle(space, 200, 42).passed
        assert check_anti_lipschitz(space, bundle, 200, 42).passed
        assert len(calls) < n * n
