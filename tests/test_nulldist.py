"""Null distance: identities, zigzags, oracles, metric axioms."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from causalgeo import (CausalSetSpace, MinkowskiSpace, PiecewiseCausalCurve,
                       PuncturedMinkowski, canonical_time_bundle, causet_time_bundle,
                       check_metric_axioms, null_distance, null_distance_oracle,
                       null_length, replay, validate_analytic_fast_path)
from causalgeo.errors import NotConnected, UnsupportedBackend
from causalgeo.core import TimeFunctionBundle
from causalgeo.nulldist import (_best_two_segment, _null_corners, _two_segment_candidates,
                                _zigzag, minkowski_analytic_candidate)
from causalgeo.spaces import PlaneFrame


class TestNullLength:
    def test_single_future_segment(self, mink, mink_bundle):
        curve = PiecewiseCausalCurve(mink, ((0.0, 0.0), (2.0, 0.5)), ("future",))
        assert null_length(mink_bundle, curve).value == 2.0

    def test_causet_chain_telescopes(self, diamond, diamond_bundle):
        curve = PiecewiseCausalCurve.future_chain(diamond, ("p", "a", "q"))
        value = null_length(diamond_bundle, curve)
        assert value.value == 2
        assert value.decomposition == (1, 1)


class TestNullDistance:
    def test_causal_pair_identity(self, mink, mink_bundle):
        result = null_distance(mink, mink_bundle, (0.0, 0.0), (2.0, 0.0))
        assert result.value == 2.0
        assert result.method == "causal_exact"
        assert result.witness_length(mink_bundle).value == 2.0

    def test_past_causal_pair(self, mink, mink_bundle):
        result = null_distance(mink, mink_bundle, (2.0, 0.0), (0.0, 0.0))
        assert result.value == 2.0
        assert result.method == "causal_exact"

    def test_spacelike_zigzag(self, mink, mink_bundle):
        # Oracle: one up-down null zigzag through (0.5, 0.5) already attains 1.
        result = null_distance(mink, mink_bundle, (0.0, 0.0), (0.0, 1.0))
        assert result.value == pytest.approx(1.0, abs=1e-9)
        assert result.method == "zigzag"
        witness = result.witness_length(mink_bundle)
        assert witness.value == pytest.approx(result.value, abs=1e-12)

    def test_forced_zigzag_matches_identity_on_causal_pairs(self, mink, mink_bundle):
        result = null_distance(mink, mink_bundle, (0.0, 0.0), (1.5, 0.5),
                               method="zigzag")
        assert result.value == pytest.approx(1.5, abs=1e-9)

    def test_diamond_spacelike_pair_both_detours(self, diamond, diamond_bundle):
        result = null_distance(diamond, diamond_bundle, "a", "b")
        assert result.value == 2
        assert result.method == "graph"
        assert result.witness_curve.points in (("a", "q", "b"), ("a", "p", "b"))
        assert result.witness_length(diamond_bundle).value == result.value

    def test_forced_graph_matches_identity(self, diamond, diamond_bundle):
        result = null_distance(diamond, diamond_bundle, "p", "q", method="graph")
        assert result.value == 2

    def test_not_connected(self):
        space = CausalSetSpace([("a", 0), ("b", 1), ("c", 0), ("d", 1)],
                               [("a", "b", 1), ("c", "d", 1)])
        bundle_time = space.time_of
        from causalgeo import causet_time_bundle
        bundle = causet_time_bundle(space)
        with pytest.raises(NotConnected):
            null_distance(space, bundle, "a", "c")

    def test_same_point(self, mink, mink_bundle):
        assert null_distance(mink, mink_bundle, (0.0, 0.0), (0.0, 0.0)).value == 0.0

    def test_higher_dimension_spacelike(self, mink3):
        from causalgeo import canonical_time_bundle
        bundle = canonical_time_bundle(mink3)
        result = null_distance(mink3, bundle, (0.0, 0.0, 0.0), (0.0, 0.6, 0.8))
        assert result.value == pytest.approx(1.0, abs=1e-9)


class TestAnalyticFastPath:
    def test_formula_matches_zigzag_after_validation(self, mink, mink_bundle):
        cert = validate_analytic_fast_path(mink, mink_bundle, sample_budget=100, seed=2)
        assert cert.passed
        value = minkowski_analytic_candidate(mink_bundle, (0.2, -0.4), (0.3, 0.9))
        assert value == pytest.approx(1.3, abs=1e-12)

    def test_is_not_a_route(self, mink, mink_bundle):
        with pytest.raises(ValueError, match="unknown method"):
            null_distance(mink, mink_bundle, (0.2, -0.4), (0.3, 0.9), method="analytic")

    def test_requires_canonical_bundle(self, cubic_mink, cubic_bundle):
        with pytest.raises(UnsupportedBackend):
            minkowski_analytic_candidate(cubic_bundle, (0.0, 0.0), (0.0, 1.0))


FLAT_BACKENDS = (MinkowskiSpace(1), MinkowskiSpace(2), MinkowskiSpace(3),
                 PuncturedMinkowski(1, removed=[(0.5, 0.0)]))


@st.composite
def flat_pairs(draw):
    space = draw(st.sampled_from(FLAT_BACKENDS))
    coords = st.lists(st.floats(-1.0, 1.0), min_size=space.spatial_dimension + 1,
                      max_size=space.spatial_dimension + 1).map(tuple)
    return space, draw(coords), draw(coords)


class TestZigzagCornerBound:
    """With coordinate time the zigzag stops at the null corner; the full
    search must not be able to tell."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(flat_pairs())
    def test_matches_full_search_and_analytic(self, case):
        space, p, q = case
        assume(p != q and space.contains(p) and space.contains(q))
        bundle = canonical_time_bundle(space)
        result = null_distance(space, bundle, p, q, method="zigzag")
        # Coordinate time without the flag that lets the route stop at the corner.
        unflagged = TimeFunctionBundle(space, bundle.time, bundle.witnesses, name="t")
        full = _zigzag(space, unflagged, p, q)
        assert result.value == full.value
        assert result.witness_curve.points == full.witness_curve.points
        assert result.witness_curve.orientations == full.witness_curve.orientations
        assert result.method == "zigzag"
        assert abs(result.value - minkowski_analytic_candidate(bundle, p, q)) <= 1e-9

    def test_forced_zigzag_never_undercuts_related_pairs(self, mink, mink_bundle):
        # |dT| bounds every piecewise causal curve from below, and the direct
        # segment of a related pair attains it.
        rng = random.Random(5)
        pairs = [tuple((rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2))
                 for _ in range(300)]
        related = [(p, q) for p, q in pairs if mink.causal_le(p, q) or mink.causal_le(q, p)]
        assert len(related) == 153
        for p, q in related:
            result = null_distance(mink, mink_bundle, p, q, method="zigzag")
            assert result.value == abs(q[0] - p[0])
            assert result.witness_curve.points == (p, q)

    def test_spacelike_pairs_skip_the_search(self, mink3, monkeypatch):
        # The four-segment search lists two-segment candidates for both
        # halves of every split it tries; the corner needs one list.
        calls = []

        def counted(*args):
            calls.append(None)
            return _two_segment_candidates(*args)

        monkeypatch.setattr("causalgeo.nulldist._two_segment_candidates", counted)
        bundle = canonical_time_bundle(mink3)
        for q in ((0.0, 0.6, 0.8), (0.3, -1.2, 0.5), (-1.5, 1.9, -0.2)):
            calls.clear()
            result = null_distance(mink3, bundle, (0.1, 0.0, 0.0), q)
            assert len(result.witness_curve.points) == 3
            assert len(calls) == 1

    def test_other_time_functions_keep_the_search(self, cubic_mink, cubic_bundle):
        p, q = (0.0, 0.0), (0.0, 1.0)
        frame = PlaneFrame(p, q)
        corner = _best_two_segment(cubic_mink, cubic_bundle, frame, p, q,
                                   frame.p_plane, frame.q_plane)
        result = null_distance(cubic_mink, cubic_bundle, p, q)
        assert corner[0] == pytest.approx(0.25, abs=1e-9)
        assert result.value == pytest.approx(0.0625, abs=1e-9)
        assert len(result.witness_curve.points) == 5

    def test_search_runs_when_no_corner_survives(self):
        p, q = (0.0, 0.0), (0.0, 1.0)
        frame = PlaneFrame(p, q)
        corners = [frame.embed(*c) for c in _null_corners(frame.p_plane, frame.q_plane)]
        space = PuncturedMinkowski(1, removed=corners)
        bundle = canonical_time_bundle(space)
        result = null_distance(space, bundle, p, q)
        assert result.method == "zigzag"
        assert len(result.witness_curve.points) == 5
        assert abs(result.value - minkowski_analytic_candidate(bundle, p, q)) <= 1e-7


class TestOracle:
    def test_causal_pair_is_exact(self, mink, mink_bundle, diamond, diamond_bundle):
        assert null_distance_oracle(diamond, diamond_bundle, "p", "q") == 2
        grid = null_distance_oracle(mink, mink_bundle, (0.0, 0.0), (1.0, 0.25),
                                    resolution=0.1)
        assert grid == pytest.approx(1.0, abs=1e-12)

    def test_small_causets_match_graph_method(self, diamond, diamond_bundle,
                                              skewed_diamond, skewed_bundle):
        for space, bundle in ((diamond, diamond_bundle),
                              (skewed_diamond, skewed_bundle)):
            for x in space.points():
                for y in space.points():
                    exhaustive = null_distance_oracle(space, bundle, x, y)
                    dijkstra = null_distance(space, bundle, x, y, method="graph").value
                    assert exhaustive == dijkstra

    def test_grid_tracks_zigzag_within_resolution(self, mink, mink_bundle):
        p, q = (0.0, 0.0), (0.0, 1.0)
        zig = null_distance(mink, mink_bundle, p, q).value
        for res in (1 / 10, 1 / 100):
            grid = null_distance_oracle(mink, mink_bundle, p, q, resolution=res,
                                        budget=2_000_000)
            assert zig <= grid + 1e-9
            assert abs(grid - zig) <= 10 * res

    def test_random_pairs_zigzag_matches_grid(self, mink, mink_bundle):
        from causalgeo.core import make_rng
        rng = make_rng(21)
        res = 0.02
        for _ in range(20):
            p = (float(rng.uniform(-0.8, 0.8)), float(rng.uniform(-0.8, 0.8)))
            q = (float(rng.uniform(-0.8, 0.8)), float(rng.uniform(-0.8, 0.8)))
            if p == q:
                continue
            zig = null_distance(mink, mink_bundle, p, q, method="zigzag").value
            grid = null_distance_oracle(mink, mink_bundle, p, q, resolution=res,
                                        budget=1_000_000)
            assert zig <= grid + 1e-9
            assert abs(zig - grid) <= 10 * res

    def test_grid_refinement_is_monotone(self, mink, mink_bundle):
        p, q = (0.1, -0.3), (0.2, 0.7)
        coarse = null_distance_oracle(mink, mink_bundle, p, q, resolution=0.1)
        fine = null_distance_oracle(mink, mink_bundle, p, q, resolution=0.05)
        assert fine <= coarse + 1e-12

    def test_grid_needs_resolution(self, mink, mink_bundle):
        with pytest.raises(ValueError):
            null_distance_oracle(mink, mink_bundle, (0.0, 0.0), (0.0, 1.0))

    def test_walk_budget_exceeded_carries_best(self, diamond, diamond_bundle):
        from causalgeo.errors import BudgetExceeded
        with pytest.raises(BudgetExceeded) as err:
            null_distance_oracle(diamond, diamond_bundle, "p", "q", budget=2)
        assert err.value.best >= 0

    def test_grid_budget_exceeded(self, mink, mink_bundle):
        from causalgeo.errors import BudgetExceeded
        with pytest.raises(BudgetExceeded):
            null_distance_oracle(mink, mink_bundle, (0.0, 0.0), (0.0, 1.0),
                                 resolution=0.01, budget=50)


class TestMetricAxioms:
    def test_minkowski_passes(self, mink, mink_bundle):
        cert = check_metric_axioms(mink, mink_bundle, sample_budget=200, seed=4,
                                   tol=1e-7)
        assert cert.passed
        assert cert.data["triples"] == 200

    def test_diamond_passes_exactly(self, diamond, diamond_bundle):
        cert = check_metric_axioms(diamond, diamond_bundle, sample_budget=64, seed=0)
        assert cert.passed
        assert cert.tolerance == 0

    def test_cubic_definiteness_fails(self, cubic_mink, cubic_bundle):
        # Distinct points straddling the flattening: a two-bump zigzag keeps
        # the null length near (s/2)^3 scale, far below any useful floor.
        pair = ((0.0, 0.0), (0.0, 1e-4))
        d = null_distance(cubic_mink, cubic_bundle, *pair).value
        assert 0 < d < 1e-12
        cert = check_metric_axioms(cubic_mink, cubic_bundle, sample_budget=32,
                                   seed=0, tol=1e-7, extra_pairs=[pair])
        assert not cert.passed
        assert cert.witness[0] == "definiteness"
        assert replay(cert, cubic_mink, cubic_bundle)

    def test_topology_nesting_factor_two(self, mink, mink_bundle):
        # d_T against the Euclidean background metric: mutual ball nesting
        # within a factor of two, spot-checked pointwise.
        from causalgeo.core import make_rng
        rng = make_rng(5)
        center = (0.0, 0.0)
        for radius in (0.1, 0.01):
            for _ in range(100):
                y = (center[0] + rng.uniform(-radius, radius),
                     center[1] + rng.uniform(-radius, radius))
                if y == center:
                    continue
                d_t = null_distance(mink, mink_bundle, center, y).value
                d_bg = mink.background_distance(center, y)
                assert d_t <= 2 * d_bg
                assert d_bg <= 2 * d_t


class TestExactZero:
    """p == q gives the bundle's own zero, so exact sums stay exact."""

    @staticmethod
    def thirds():
        return CausalSetSpace([("a", 0), ("b", Fraction(1, 3)), ("c", 1)],
                              [("a", "b", Fraction(1, 3)), ("b", "c", Fraction(2, 3))])

    def test_same_vertex_is_exact_zero(self):
        space = self.thirds()
        value = null_distance(space, causet_time_bundle(space), "b", "b").value
        assert isinstance(value, Fraction)
        assert value == 0

    def test_triangle_through_repeated_vertex_is_exact(self):
        # d(a,b) <= d(a,a) + d(a,b) must hold exactly; a float 0.0 rounds
        # the right side to 0.333...31 < 1/3.
        space = self.thirds()
        bundle = causet_time_bundle(space)
        d_ab = null_distance(space, bundle, "a", "b").value
        d_aa = null_distance(space, bundle, "a", "a").value
        assert d_ab == d_aa + d_ab == Fraction(1, 3)

    def test_metric_axioms_pass(self):
        space = self.thirds()
        cert = check_metric_axioms(space, causet_time_bundle(space), sample_budget=50)
        assert cert.passed, cert.witness
