"""Null distance: identities, zigzags, oracles, metric axioms."""

import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from causalgeo import (CausalSetSpace, FlatTimeBundle, MinkowskiSpace,
                       PiecewiseCausalCurve, PuncturedMinkowski, canonical_time_bundle,
                       causet_time_bundle, check_metric_axioms, cubic_time_bundle,
                       null_distance, null_distance_oracle, null_length, replay)
from causalgeo.cli import main
from causalgeo.core import DEFAULT_TOL
from causalgeo.errors import BudgetExceeded, NotConnected
from causalgeo.nulldist import _corner_nudge, _graph
from conftest import plane_point


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
        # The witness's apex sits one nudge inside the cones, paid on both legs.
        assert 0 <= witness.value - result.value <= 2 * _corner_nudge(0.0, 0.0, 1.0) + 1e-15

    def test_diamond_spacelike_pair_both_detours(self, diamond, diamond_bundle):
        result = null_distance(diamond, diamond_bundle, "a", "b")
        assert result.value == 2
        assert result.method == "graph"
        assert result.witness_curve.points in (("a", "q", "b"), ("a", "p", "b"))
        assert result.witness_length(diamond_bundle).value == result.value

    def test_forced_graph_matches_identity(self, diamond, diamond_bundle):
        result = _graph(diamond, diamond_bundle, "p", "q")
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


def coordinate_null_distance(p, q):
    """max(|dt|, ||dx||): the null distance of coordinate time on flat space.

    Every causal segment has |dt| >= ||dx||, so no piecewise causal curve is
    shorter, and the two-segment null corner attains it."""
    return max(abs(q[0] - p[0]), math.dist(p[1:], q[1:]))


class TestFalseSlopeMinimum:
    """Coordinate time with a false slope minimum: f' = 1 everywhere, but the
    zigzag also tries crossing at t = 0 for 0.5 per unit of distance, and
    undercuts the true d_T = 2 with 1.1."""

    P, Q = (-0.1, -1.0), (0.1, 1.0)

    @pytest.fixture
    def false_minimum(self, mink_bundle):
        return FlatTimeBundle(mink_bundle.f, mink_bundle.f_inverse, mink_bundle.witnesses,
                              slope_minima=((0.0, 0.5),))

    def test_witness_search_gives_up_with_its_null_length(self, mink, false_minimum):
        result = null_distance(mink, false_minimum, self.P, self.Q)
        assert result.value == pytest.approx(1.1, abs=1e-12)
        with pytest.raises(BudgetExceeded) as err:
            result.witness_curve
        assert err.value.best >= 2.0 - 1e-9

    def test_grid_oracle_reads_the_true_distance(self, mink, false_minimum):
        oracle = null_distance_oracle(mink, false_minimum, self.P, self.Q, resolution=0.05)
        assert abs(oracle - 2.0) <= 1e-6


FLAT_BACKENDS = (MinkowskiSpace(1), MinkowskiSpace(2), MinkowskiSpace(3),
                 PuncturedMinkowski(1, removed=[(0.5, 0.0)]))


@st.composite
def flat_pairs(draw):
    space = draw(st.sampled_from(FLAT_BACKENDS))
    coords = st.lists(st.floats(-1.0, 1.0), min_size=space.spatial_dimension + 1,
                      max_size=space.spatial_dimension + 1).map(tuple)
    return space, draw(coords), draw(coords)


def corner_levels(p, q):
    """The two null-corner levels (t_p + t_q +- ||Dx||)/2 of a spacelike pair."""
    span = math.dist(p[1:], q[1:])
    return (p[0] + q[0] + span) / 2, (p[0] + q[0] - span) / 2


def nudged_corners(p, q):
    """Both null corners, each pushed one nudge inside the cones, embedded
    where a witness turning at that level lays its joint."""
    up, down = corner_levels(p, q)
    nudge = _corner_nudge(p[0], q[0], math.dist(p[1:], q[1:]))
    return [plane_point(p, q, up + nudge, up - p[0]),
            plane_point(p, q, down - nudge, p[0] - down)]


class TestZigzagCornerBound:
    """With coordinate time f' is constant, so the zigzag is the null corner,
    which meets the bound max(|dt|, ||dx||)."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(flat_pairs())
    def test_matches_corner_and_analytic(self, case):
        # g at a corner level is max(|dt|, ||dx||) up to rounding; a corner
        # valued from nudged coordinates would be off by about 1e-12.
        space, p, q = case
        assume(p != q and space.contains(p) and space.contains(q))
        bundle = canonical_time_bundle(space)
        result = null_distance(space, bundle, p, q)
        if space.causal_le(p, q) or space.causal_le(q, p):
            assert result.method == "causal_exact"
            assert result.witness_curve.points == (p, q)
        else:
            assert result.method == "zigzag"
            witness = result.witness_curve
            assert witness.points[::2] == (p, q)
            assert witness.points[1] in nudged_corners(p, q)
            assert 0 <= result.witness_length(bundle).value - result.value <= DEFAULT_TOL
        assert abs(result.value - coordinate_null_distance(p, q)) <= 1e-14

    def test_spacelike_pairs_skip_the_search(self, mink3, monkeypatch):
        # The value takes only the routing's two relation tests on the pair
        # itself, and the witness is the null corner.
        relation_tests = []
        causal_le = mink3.causal_le

        def counted_le(x, y):
            relation_tests.append({x, y})
            return causal_le(x, y)

        monkeypatch.setattr(mink3, "causal_le", counted_le)
        bundle = canonical_time_bundle(mink3)
        p = (0.1, 0.0, 0.0)
        for q in ((0.0, 0.6, 0.8), (0.3, -1.2, 0.5), (-1.5, 1.9, -0.2)):
            relation_tests.clear()
            result = null_distance(mink3, bundle, p, q)
            assert relation_tests == [{p, q}, {p, q}]
            assert len(result.witness_curve.points) == 3

    def test_search_runs_when_no_corner_survives(self):
        # The value is g at a corner level; the witness's apex is pushed on
        # out of the cones, past the removed corner.
        p, q = (0.0, 0.0), (0.0, 1.0)
        corners = nudged_corners(p, q)
        space = PuncturedMinkowski(1, removed=corners)
        bundle = canonical_time_bundle(space)
        result = null_distance(space, bundle, p, q)
        assert result.method == "zigzag"
        assert result.value == coordinate_null_distance(p, q)
        witness = result.witness_curve
        assert len(witness.points) == 3
        assert all(space.contains(m) for m in witness.points)
        assert 0 <= result.witness_length(bundle).value - result.value <= DEFAULT_TOL


def cubic_g(s, p, q):
    """g(s) of the closed form for T = t^3, computed apart from the route."""
    reach = max(0.0, math.dist(p[1:], q[1:]) - abs(s - p[0]) - abs(s - q[0]))
    return abs(s ** 3 - p[0] ** 3) + abs(q[0] ** 3 - s ** 3) + 3 * s * s * reach


def cubic_corner(p, q):
    """The cheaper of the two null corners for T = t^3."""
    return min(cubic_g(s, p, q) for s in corner_levels(p, q))


CUBIC_SPACE = MinkowskiSpace(1, window=((-1.0, 1.0), 1.0))
CUBIC_BUNDLE = cubic_time_bundle(CUBIC_SPACE)
CUBIC_COORD = st.floats(-0.8, 0.8)


def crossing_pairs(count, seed):
    """Spacelike pairs on either side of t = 0 whose crossing beats both corners."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p = (rng.uniform(-0.3, 0.0), rng.uniform(-1.0, -0.3))
        q = (rng.uniform(0.0, 0.3), rng.uniform(0.3, 1.0))
        if cubic_g(0.0, p, q) < cubic_corner(p, q):
            out.append((p, q))
    return out


class TestCubicClosedForm:
    """T = t^3: the slope 3t^2 has its minimum 0 at t = 0, so a crossing there
    can undercut both null corners."""

    @pytest.mark.parametrize("p, q, want", [
        ((0.0, 0.0), (0.0, 1.0), 0.0),
        ((0.1, 0.0), (0.1, 1.0), 0.002),
        ((-0.3, 0.0), (0.4, 1.0), 0.091),
    ])
    def test_crossing_values(self, cubic_mink, cubic_bundle, p, q, want):
        result = null_distance(cubic_mink, cubic_bundle, p, q)
        assert result.method == "zigzag"
        assert abs(result.value - want) <= 1e-12

    def test_crossing_undercuts_the_corner(self, cubic_mink, cubic_bundle):
        p, q = (0.0, 0.0), (0.0, 1.0)
        assert cubic_corner(p, q) == 0.25
        assert null_distance(cubic_mink, cubic_bundle, p, q).value == 0.0

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(CUBIC_COORD, CUBIC_COORD)
    def test_zero_on_the_flattening(self, x, y):
        assume(x != y)
        assert null_distance(CUBIC_SPACE, CUBIC_BUNDLE, (0.0, x), (0.0, y)).value == 0.0

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(CUBIC_COORD, CUBIC_COORD, CUBIC_COORD, CUBIC_COORD)
    def test_agrees_with_grid_oracle(self, tp, xp, tq, xq):
        # Every grid walk is a piecewise causal curve, so the oracle bounds
        # d_T from above.  C = 3: the largest (oracle - value)/h measured was
        # 0.91 over these draws and 2.65 over 300 seeded uniform pairs in the
        # same square, where the slope 3t^2 reaches 1.92.
        p, q = (tp, xp), (tq, xq)
        assume(p != q)
        value = null_distance(CUBIC_SPACE, CUBIC_BUNDLE, p, q).value
        for h in (0.05, 0.025):
            oracle = null_distance_oracle(CUBIC_SPACE, CUBIC_BUNDLE, p, q, resolution=h,
                                          budget=1_000_000)
            assert value <= oracle + 1e-12
            assert oracle - value <= 3 * h

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(CUBIC_COORD, min_size=6, max_size=6))
    def test_minimizes_g_in_1_plus_2(self, coords):
        p, q = tuple(coords[:3]), tuple(coords[3:])
        space = MinkowskiSpace(2, window=((-1.0, 1.0), 1.0))
        assume(p != q and not (space.causal_le(p, q) or space.causal_le(q, p)))
        value = null_distance(space, cubic_time_bundle(space), p, q).value
        span = math.dist(p[1:], q[1:])
        down, up = (p[0] + q[0] - span) / 2, (p[0] + q[0] + span) / 2
        scan = min(cubic_g(down + (up - down) * i / 4000, p, q) for i in range(4001))
        # The scan steps past t = 0 by at most (up - down)/8000, where g
        # rises like 3 s^2 R; the route and the scan round apart.
        assert value <= scan + 1e-12
        assert scan - value <= 3 * ((up - down) / 8000) ** 2 * span + 1e-12

    # The last pair is null but for R = 1e-13, below the nudge: it still
    # needs teeth, as it passes the crossing level monotonically.
    @pytest.mark.parametrize("p, q", [((0.0, 0.0), (0.0, 1.0)), ((-0.3, 0.0), (0.4, 1.0)),
                                      ((0.2, -0.5), (-0.1, 0.6)),
                                      ((-0.5, 0.0), (0.5, 1.0 + 1e-13))])
    def test_crossing_witnesses(self, cubic_mink, cubic_bundle, p, q):
        result = null_distance(cubic_mink, cubic_bundle, p, q)
        witness = result.witness_curve
        witness.validate()
        assert len(witness.points) > 3
        assert -1e-12 <= result.witness_length(cubic_bundle).value - result.value <= DEFAULT_TOL

    def test_witness_avoids_a_removed_tooth_joint(self, cubic_mink, cubic_bundle):
        p, q = (-0.3, 0.0), (0.4, 1.0)
        joints = null_distance(cubic_mink, cubic_bundle, p, q).witness_curve.points
        mid = len(joints) // 2
        removed = joints[mid]
        space = PuncturedMinkowski(1, removed=[removed], window=((-0.4, 0.4), 0.4))
        bundle = cubic_time_bundle(space)
        result = null_distance(space, bundle, p, q)
        witness = result.witness_curve
        witness.validate()
        assert removed not in witness.points
        assert all(space.contains(m) for m in witness.points)
        # Only the removed apex moves, one more nudge out of the cones.
        assert witness.points[:mid] + witness.points[mid + 1:] == joints[:mid] + joints[mid + 1:]
        assert -1e-12 <= result.witness_length(bundle).value - result.value <= DEFAULT_TOL

    def test_witness_nudges_a_joint_past_two_removed_positions(self, cubic_mink, cubic_bundle):
        p, q = (-0.3, 0.0), (0.4, 1.0)
        plain = null_distance(cubic_mink, cubic_bundle, p, q)
        joints = plain.witness_curve.points
        mid = len(joints) // 2
        once = PuncturedMinkowski(1, removed=[joints[mid]], window=((-0.4, 0.4), 0.4))
        removed = [joints[mid],
                   null_distance(once, cubic_time_bundle(once), p, q).witness_curve.points[mid]]
        space = PuncturedMinkowski(1, removed=removed, window=((-0.4, 0.4), 0.4))
        bundle = cubic_time_bundle(space)
        result = null_distance(space, bundle, p, q)
        witness = result.witness_curve
        witness.validate()
        assert result.value == plain.value
        assert not set(removed) & set(witness.points)
        assert all(space.contains(m) for m in witness.points)
        # The apex moves a third nudge out of the cones; every other joint
        # keeps its bits.
        apex = [point[0] for point in (joints[mid], *removed[1:], witness.points[mid])]
        assert apex == sorted(apex) or apex == sorted(apex, reverse=True)
        assert (_hexes(witness.points[:mid] + witness.points[mid + 1:])
                == _hexes(joints[:mid] + joints[mid + 1:]))
        assert -1e-12 <= result.witness_length(bundle).value - result.value <= DEFAULT_TOL

    # g at the down corner of this pair is 2.296; its nudged corner is
    # (0.5999999999958001, 0.3999999999999999).
    REMOVED_CORNER_PAIR = (1.0, 0.0), (1.2, 1.0)

    def test_a_removed_corner_keeps_the_value(self, cubic_mink, cubic_bundle):
        p, q = self.REMOVED_CORNER_PAIR
        value = null_distance(cubic_mink, cubic_bundle, p, q).value
        assert value == pytest.approx(2.296, abs=1e-12)
        for corner in nudged_corners(p, q):
            space = PuncturedMinkowski(1, removed=[corner])
            bundle = cubic_time_bundle(space)
            result = null_distance(space, bundle, p, q)
            assert result.value == value
            result.witness_curve.validate()
            assert corner not in result.witness_curve.points

    def test_both_removed_corners_leave_a_valid_witness(self):
        p, q = self.REMOVED_CORNER_PAIR
        corners = nudged_corners(p, q)
        space = PuncturedMinkowski(1, removed=corners)
        bundle = cubic_time_bundle(space)
        result = null_distance(space, bundle, p, q)
        witness = result.witness_curve
        witness.validate()
        assert len(witness.points) == 3
        assert not set(corners) & set(witness.points)
        assert 0 <= result.witness_length(bundle).value - result.value <= DEFAULT_TOL

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(
        st.just(n), *(st.floats(-1.0, 1.0),) * (2 * n + 2))))
    def test_witnesses_meet_the_value(self, case):
        # Spacelike pairs uniform in [-1, 1]^(1+n): each witness validates
        # and measures within tolerance above the value.
        n, coords = case[0], case[1:]
        p, q = coords[:n + 1], coords[n + 1:]
        space = MinkowskiSpace(n)
        assume(not (space.causal_le(p, q) or space.causal_le(q, p)))
        bundle = cubic_time_bundle(space)
        result = null_distance(space, bundle, p, q)
        result.witness_curve.validate()
        assert -1e-12 <= result.witness_length(bundle).value - result.value <= 1e-9

    def test_values_build_no_witness(self, tmp_path, monkeypatch):
        # The nulldist command and metric_axioms read only the value.
        import causalgeo.nulldist as nd
        calls = []
        crossing_witness = nd._crossing_witness

        def counted(*args):
            calls.append(None)
            return crossing_witness(*args)

        monkeypatch.setattr(nd, "_crossing_witness", counted)
        pairs = crossing_pairs(50, seed=3)
        pairs_csv = tmp_path / "pairs.csv"
        pairs_csv.write_text("src,dst\n" + "".join(
            f"{p[0]!r};{p[1]!r},{q[0]!r};{q[1]!r}\n" for p, q in pairs))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[backend]\nwindow_t = -1 1\nwindow_radius = 1\n"
                       "\n[time_function]\nkind = cubic\n")
        out = tmp_path / "o"
        assert main(["nulldist", "--config", str(cfg), "--pairs", str(pairs_csv),
                     "--out", str(out)]) == 0
        rows = (out / "distances.csv").read_text().splitlines()[1:]
        assert [float(r.split(",")[2]) for r in rows] == [cubic_g(0.0, p, q) for p, q in pairs]
        check_metric_axioms(CUBIC_SPACE, CUBIC_BUNDLE, sample_budget=32, seed=0)
        assert calls == []
        null_distance(CUBIC_SPACE, CUBIC_BUNDLE, *pairs[0]).witness_curve
        assert len(calls) == 1


def _hexes(points):
    return [tuple(map(float.hex, point)) for point in points]


class TestWitnessDigest:
    """No golden holds a witness curve, so one digest pins the bits of 408:
    seeded spacelike pairs in 1+1 to 1+3 with coordinate time and t^3, on
    plain space and with every other interior joint of the plain witness
    removed, which moves each of those joints one nudge further out."""

    DIGEST = "a82f779d242706ae6bddbce7e5494ebe257e8f68c2e19f638fd9afbb4803a071"

    def test_witness_points_keep_their_bits(self):
        rng, digest = random.Random(28), hashlib.sha256()
        for dim in (1, 2, 3):
            plain = MinkowskiSpace(dim)
            # t^3 witnesses run to thousands of teeth; coordinate time's are corners.
            for make_bundle, count in ((canonical_time_bundle, 60), (cubic_time_bundle, 8)):
                pairs = []
                while len(pairs) < count:
                    p, q = (tuple(rng.uniform(-1.0, 1.0) for _ in range(dim + 1))
                            for _ in range(2))
                    if not (plain.causal_le(p, q) or plain.causal_le(q, p)):
                        pairs.append((p, q))
                for p, q in pairs:
                    joints = null_distance(plain, make_bundle(plain), p, q).witness_curve.points
                    punctured = PuncturedMinkowski(dim, removed=joints[1:-1:2])
                    for space in (plain, punctured):
                        witness = null_distance(space, make_bundle(space), p, q).witness_curve
                        for point in _hexes(witness.points):
                            digest.update(" ".join(point).encode() + b"\n")
        assert digest.hexdigest() == self.DIGEST


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
                    dijkstra = _graph(space, bundle, x, y).value
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
            zig = null_distance(mink, mink_bundle, p, q).value
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
        # Distinct points on the flattening t = 0: teeth crossing it cost
        # nothing in the limit.
        pair = ((0.0, 0.0), (0.0, 1e-4))
        d = null_distance(cubic_mink, cubic_bundle, *pair).value
        assert d == 0.0
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
                d_bg = math.dist(center, y)
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
