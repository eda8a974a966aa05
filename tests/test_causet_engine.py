"""Causal-set query engine against brute force on random weighted DAGs.

The DAGs mix zero-weight edges with non-dyadic weights and times (thirds,
sevenths), and their vertex ids are shuffled against the time order, so the
id-ordered bitmasks, the integer-tick longest paths and Dijkstra and the
pruned midpoint search are each compared with the plain enumeration or the
Fraction arithmetic they replace.
"""

import heapq
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from causalgeo import (CausalSetSpace, TimeFunctionBundle, causet_time_bundle,
                       check_anti_lipschitz, check_reverse_triangle, is_eps_tau_midpoint,
                       null_distance, null_distance_oracle, sprinkle_causet)
from causalgeo.errors import NotConnected, UnsupportedBackend
from causalgeo.midpoints import _search_with_taus
from causalgeo.nulldist import _graph

STEPS = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 7), Fraction(1))
WEIGHTS = (Fraction(0), Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(5, 7),
           Fraction(1), Fraction(2), 0.125)


@st.composite
def weighted_dags(draw, max_vertices=8):
    n = draw(st.integers(1, max_vertices))
    times = [Fraction(0)]
    for _ in range(n - 1):
        times.append(times[-1] + draw(st.sampled_from(STEPS)))
    labels = draw(st.permutations(range(n)))
    ids = [f"v{label}" for label in labels]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if times[j] > times[i] and draw(st.booleans()):
                edges.append((ids[i], ids[j], draw(st.sampled_from(WEIGHTS))))
    return CausalSetSpace(list(zip(ids, times)), edges)


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

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(weighted_dags())
    def test_diamond_is_the_causal_interval(self, space):
        ids = space.vertices
        for p in ids:
            for q in ids:
                if space.causal_le(p, q):
                    assert space.causal_diamond(p, q) == [
                        y for y in ids if space.causal_le(p, y) and space.causal_le(y, q)]


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
        # Times scaled by 7/3 change the tick scale and scale every d_T by 7/3.
        thirds = CausalSetSpace([(v, space.time_of(v) * Fraction(7, 3)) for v in space.vertices],
                                space.edges)
        for x in space.vertices:
            for y in space.vertices:
                for s in (space, thirds):
                    want = reference_dijkstra(s, x, y)
                    got = s.time_graph_distance(x, y, with_path=True)
                    assert got == want
                    if want is not None:
                        assert isinstance(got[0], Fraction)
                        assert s.time_graph_distance(x, y) == want[0]
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

    def test_off_diamond_point_wins_when_tolerance_exceeds_half(self):
        # r is unrelated to p and q, so both of its half-separations are
        # |0 - 1/2|; with eps = 1 it is feasible and sits at the time centre.
        space = CausalSetSpace([("p", 0), ("r", Fraction(1, 2)), ("q", 1)],
                               [("p", "q", 1)])
        bundle = causet_time_bundle(space)
        assert space.causal_diamond("p", "q") == ["p", "q"]
        assert search(space, bundle, "p", "q", 1.0, None) == "r"
        assert search(space, bundle, "p", "q", 0.5, None) is None


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
