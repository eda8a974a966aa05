"""Dyadic synthesis: construction invariants, certificates, extension."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from causalgeo import (CausalSetSpace, DyadicCurve, MinkowskiSpace, PuncturedMinkowski,
                       build_dyadic_curve, canonical_time_bundle, causet_time_bundle,
                       check_causal_extension, check_holder, check_realizer,
                       check_subsequent_bound, extend_curve, is_eps_tau_midpoint,
                       replay, synthesize_geodesic)
from causalgeo.errors import (BudgetExceeded, CauchyBudget, MidpointUnavailable,
                              NotChronological, NotComplete)
from causalgeo.geodesic import MAX_DEPTH, _null_branch_curve
from causalgeo.spaces import PlaneFrame

P, Q = (0.0, 0.0), (2.0, 0.0)


def chain_space(n_edges=4):
    ids = [f"v{i}" for i in range(n_edges + 1)]
    return CausalSetSpace(
        [(v, i) for i, v in enumerate(ids)],
        [(a, b, 1) for a, b in zip(ids, ids[1:])])


class TestBuild:
    def test_straight_line_exact_coordinates(self, mink, mink_bundle):
        curve = build_dyadic_curve(mink, mink_bundle, P, Q, c=0.5, depth=3)
        for k in range(9):
            assert curve.point_at(Fraction(k, 8)) == (k / 4, 0.0)

    def test_boosted_segment_stays_affine(self, mink, mink_bundle):
        q = (2.0, 1.0)
        curve = build_dyadic_curve(mink, mink_bundle, P, q, c=0.5, depth=3)
        tau_pq = mink.tau(P, q)
        for fr, point in curve.values.items():
            lam = float(fr)
            assert point == pytest.approx((2 * lam, lam), abs=1e-12)
        for fr_a, fr_b in curve.adjacent_pairs(3):
            step = mink.tau(curve.point_at(fr_a), curve.point_at(fr_b))
            assert step == pytest.approx(tau_pq / 8, abs=1e-12)
        # Proportionality holds between arbitrary stored dyadics, not just
        # adjacent ones.
        params = curve.params()
        for fr_a in params:
            for fr_b in params:
                if fr_a < fr_b:
                    value = mink.tau(curve.point_at(fr_a), curve.point_at(fr_b))
                    assert value == pytest.approx(float(fr_b - fr_a) * tau_pq,
                                                  abs=1e-12)

    def test_determinism_bit_identical(self, mink, mink_bundle):
        one = build_dyadic_curve(mink, mink_bundle, P, Q, c=0.5, depth=5)
        two = build_dyadic_curve(mink, mink_bundle, P, Q, c=0.5, depth=5)
        assert one.values == two.values
        assert repr(sorted(one.values.items())) == repr(sorted(two.values.items()))

    def test_monotone_refinement(self, mink, mink_bundle):
        shallow = build_dyadic_curve(mink, mink_bundle, P, Q, c=0.5, depth=3)
        deep = build_dyadic_curve(mink, mink_bundle, P, Q, c=0.5, depth=5)
        for fr, point in shallow.values.items():
            assert deep.values[fr] == point

    def test_exact_mode_fails_on_puncture(self, punctured, punctured_bundle):
        with pytest.raises(MidpointUnavailable) as err:
            build_dyadic_curve(punctured, punctured_bundle, P, Q, c=0.5, depth=8)
        assert err.value.level == 1
        assert err.value.pair == (P, Q)

    def test_approximate_mode_survives_puncture(self, punctured, punctured_bundle):
        epsilon = 0.1 * punctured.tau(P, Q)
        curve = build_dyadic_curve(punctured, punctured_bundle, P, Q, c=0.5,
                                   depth=8, mode="approximate", epsilon=epsilon)
        for level in range(1, curve.depth + 1):
            level_eps = epsilon / 4 ** level
            denom = 1 << level
            for k in range(1, denom, 2):
                parents = (curve.point_at(Fraction(k - 1, denom)),
                           curve.point_at(Fraction(k + 1, denom)))
                child = curve.point_at(Fraction(k, denom))
                assert is_eps_tau_midpoint(punctured, parents[0], parents[1],
                                           child, level_eps)

    def test_chain_causet_supports_two_levels(self):
        space = chain_space(4)
        from causalgeo import causet_time_bundle
        bundle = causet_time_bundle(space)
        curve = build_dyadic_curve(space, bundle, "v0", "v4", c=0.5, depth=2)
        assert curve.point_at(Fraction(1, 2)) == "v2"
        assert curve.point_at(Fraction(1, 4)) == "v1"
        assert curve.point_at(Fraction(3, 4)) == "v3"
        with pytest.raises(MidpointUnavailable) as err:
            build_dyadic_curve(space, bundle, "v0", "v4", c=0.5, depth=3)
        assert err.value.level == 3

    def test_validation(self, mink, mink_bundle):
        with pytest.raises(NotChronological):
            build_dyadic_curve(mink, mink_bundle, P, (0.0, 3.0), c=0.5, depth=2)
        with pytest.raises(ValueError):
            build_dyadic_curve(mink, mink_bundle, P, Q, c=0.7, depth=2)
        with pytest.raises(ValueError):
            build_dyadic_curve(mink, mink_bundle, P, Q, c=0.5, depth=2,
                               mode="approximate", epsilon=0.0)


class TestSubsequentBound:
    def test_halving_meets_bound_with_equality(self, mink, mink_bundle):
        curve = build_dyadic_curve(mink, mink_bundle, P, Q, c=0.5, depth=5)
        cert = check_subsequent_bound(curve)
        assert cert.passed
        assert cert.data["max_excess"] == pytest.approx(0.0, abs=1e-12)

    def test_skewed_causet_holds_with_slack(self, skewed_diamond, skewed_bundle):
        curve = build_dyadic_curve(skewed_diamond, skewed_bundle, "p", "q",
                                   c=0.1, depth=1)
        assert curve.point_at(Fraction(1, 2)) == "a"
        cert = check_subsequent_bound(curve)
        assert cert.passed
        # The (a, q) pair attains the level-1 bound: 1.8 = 0.9 * 2 exactly.
        assert cert.data["max_excess"] == pytest.approx(0.0, abs=1e-12)

    def test_off_strip_injection_fails(self, skewed_diamond, skewed_bundle):
        curve = build_dyadic_curve(skewed_diamond, skewed_bundle, "p", "q",
                                   c=0.1, depth=1)
        poisoned = dict(curve.values)
        poisoned[Fraction(1, 2)] = "b"  # T gap 1.8 > (1-c) * 2 = 1.1 for c = 0.45
        bad = DyadicCurve(skewed_diamond, skewed_bundle, "p", "q", 0.45, 1,
                          "exact", 0.0, poisoned)
        cert = check_subsequent_bound(bad)
        assert not cert.passed
        assert cert.witness[0] == 1
        assert replay(cert, skewed_diamond, skewed_bundle)


class TestHolder:
    def test_lipschitz_limit_at_half(self, mink, mink_bundle):
        curve = build_dyadic_curve(mink, mink_bundle, P, Q, c=0.5, depth=5)
        cert = check_holder(curve)
        assert cert.passed
        assert cert.alpha == 1.0
        assert cert.constant == pytest.approx(8.0)
        assert cert.max_ratio == pytest.approx(2.0, abs=1e-12)

    def test_exponent_formula(self, mink, mink_bundle):
        curve = build_dyadic_curve(mink, mink_bundle, P, Q, c=0.25, depth=2)
        cert = check_holder(curve)
        assert cert.alpha == pytest.approx(-math.log2(0.75), abs=1e-15)
        assert cert.alpha == pytest.approx(0.4150374992788438, abs=1e-15)

    def test_constant_slack_is_recorded_not_asserted(self, skewed_diamond,
                                                     skewed_bundle):
        # Tightening K by 0.99 does not fail here; the certificate records
        # the observed slack instead of pretending the bound is sharp.
        curve = build_dyadic_curve(skewed_diamond, skewed_bundle, "p", "q",
                                   c=0.1, depth=1)
        cert = check_holder(curve)
        assert cert.passed
        assert cert.max_ratio <= 0.99 * cert.constant
        assert cert.data["slack"] > 0

    def test_injected_jump_breaks_bound(self, mink, mink_bundle):
        curve = build_dyadic_curve(mink, mink_bundle, P, Q, c=0.5, depth=4)
        poisoned = dict(curve.values)
        poisoned[Fraction(1, 16)] = (1.9, 0.0)
        bad = DyadicCurve(mink, mink_bundle, P, Q, 0.5, 4, "exact", 0.0, poisoned)
        cert = check_holder(bad)
        assert not cert.passed
        assert replay(cert, mink, mink_bundle)


class TestExtension:
    def test_dyadic_parameters_return_stored_points(self, mink, mink_bundle):
        curve = build_dyadic_curve(mink, mink_bundle, P, Q, c=0.5, depth=4)
        assert extend_curve(curve, Fraction(3, 8)) == curve.point_at(Fraction(3, 8))
        assert extend_curve(curve, 0.25) == curve.point_at(Fraction(1, 4))

    def test_third_converges_with_depth(self, mink, mink_bundle):
        for depth in (4, 6, 8):
            curve = build_dyadic_curve(mink, mink_bundle, P, Q, c=0.5, depth=depth)
            point = extend_curve(curve, 1 / 3)
            bound = 2.0 ** -depth * curve.holder_constant()
            assert abs(point[0] - 2 / 3) <= bound
            assert point[1] == 0.0

    def test_cauchy_budget(self, mink, mink_bundle):
        curve = build_dyadic_curve(mink, mink_bundle, P, Q, c=0.5, depth=6)
        with pytest.raises(CauchyBudget):
            extend_curve(curve, 1 / 3, tol=1e-12)
        assert extend_curve(curve, 1 / 3, tol=1.0) is not None

    def test_finite_backend_stabilized_and_not(self):
        space = chain_space(4)
        from causalgeo import causet_time_bundle
        bundle = causet_time_bundle(space)
        curve = build_dyadic_curve(space, bundle, "v0", "v4", c=0.5, depth=2)
        assert extend_curve(curve, Fraction(1, 4)) == "v1"
        with pytest.raises(NotComplete):
            extend_curve(curve, 1 / 3)
        stabilized = DyadicCurve(space, bundle, "v0", "v4", 0.5, 2, "exact", 0.0,
                                 {Fraction(0): "v0", Fraction(1, 4): "v0",
                                  Fraction(1, 2): "v0", Fraction(3, 4): "v2",
                                  Fraction(1): "v4"})
        assert extend_curve(stabilized, 1 / 3) == "v0"


class TestCausalExtension:
    def test_straight_and_boosted_pass(self, mink, mink_bundle):
        for q in (Q, (2.0, 1.0)):
            curve = build_dyadic_curve(mink, mink_bundle, P, q, c=0.5, depth=6)
            cert = check_causal_extension(curve, sample_budget=100, seed=8)
            assert cert.passed
            assert cert.samples_checked > 0

    def test_spacelike_jump_near_third_fails(self, mink, mink_bundle):
        curve = build_dyadic_curve(mink, mink_bundle, P, Q, c=0.5, depth=6)
        poisoned = dict(curve.values)
        poisoned[Fraction(21, 64)] = (21 / 32, 5.0)
        bad = DyadicCurve(mink, mink_bundle, P, Q, 0.5, 6, "exact", 0.0, poisoned)
        cert = check_causal_extension(bad, sample_budget=300, seed=8)
        assert not cert.passed
        assert replay(cert, mink, mink_bundle)
        # The same jump wrecks the constant-speed certificate too.
        realizer = check_realizer(bad, sample_budget=300, seed=8)
        assert not realizer.passed
        assert replay(realizer, mink, mink_bundle)
        # A time jump (rather than a spatial one) is what the tail
        # certificate sees: time gaps of consecutive truncations.
        poisoned[Fraction(21, 64)] = (1.9, 0.0)
        worse = DyadicCurve(mink, mink_bundle, P, Q, 0.5, 6, "exact", 0.0, poisoned)
        from causalgeo.geodesic import check_extension_tail
        tail = check_extension_tail(worse, sample_budget=200, seed=8)
        assert not tail.passed
        assert replay(tail, mink, mink_bundle)


class TestRealizer:
    def test_exact_deviation_within_sandwich(self, mink, mink_bundle):
        curve = build_dyadic_curve(mink, mink_bundle, P, Q, c=0.5, depth=10)
        cert = check_realizer(curve, sample_budget=100, seed=1)
        assert cert.passed
        assert cert.data["max_deviation"] <= 2.0 ** -9 * 2 + 1e-9
        assert cert.data["tau_length"] == pytest.approx(2.0, abs=1e-9)

    def test_endpoints_recover_tau_exactly(self, mink, mink_bundle):
        curve = build_dyadic_curve(mink, mink_bundle, P, Q, c=0.5, depth=4)
        assert float(mink.tau(extend_curve(curve, 0.0), extend_curve(curve, 1.0))) == 2.0

    def test_approximate_speed_and_length(self, punctured, punctured_bundle):
        epsilon = 0.1 * punctured.tau(P, Q)
        curve = build_dyadic_curve(punctured, punctured_bundle, P, Q, c=0.5,
                                   depth=8, mode="approximate", epsilon=epsilon)
        cert = check_realizer(curve, sample_budget=150, seed=2)
        assert cert.passed
        assert cert.data["tau_length"] >= 0.9 * 2.0 - 1e-7


class TestSynthesize:
    def test_minkowski_pipeline_all_pass(self, mink, mink_bundle):
        curve, certs = synthesize_geodesic(mink, mink_bundle, P, Q, c=0.5, depth=6)
        assert set(certs) == {"subsequent_dyadic_bound", "holder", "extension_tail",
                              "causal_extension", "realizer"}
        assert all(cert.passed for cert in certs.values())

    def test_null_pair_uses_null_segment(self, mink, mink_bundle):
        curve, certs = synthesize_geodesic(mink, mink_bundle, (0.0, 0.0), (1.0, 1.0),
                                           c=0.5, depth=4)
        assert curve.mode == "null"
        assert set(certs) == {"causal_extension", "realizer"}
        assert all(cert.passed for cert in certs.values())
        assert curve.point_at(Fraction(1, 2)) == pytest.approx((0.5, 0.5))

    def test_causet_null_pair_uses_directed_path(self):
        space = CausalSetSpace([("a", 0), ("b", 1), ("c", 2)],
                               [("a", "b", 0), ("b", "c", 0)])
        from causalgeo import causet_time_bundle
        bundle = causet_time_bundle(space)
        curve, certs = synthesize_geodesic(space, bundle, "a", "c", c=0.5, depth=3)
        assert curve.mode == "null"
        assert all(cert.passed for cert in certs.values())

    def test_unrelated_pair_rejected(self, mink, mink_bundle):
        with pytest.raises(ValueError):
            synthesize_geodesic(mink, mink_bundle, (0.0, 0.0), (0.0, 3.0),
                                c=0.5, depth=2)

    def test_depth_zero_rejected(self, mink, mink_bundle):
        # Certificates sample the extension, which needs at least one level.
        with pytest.raises(ValueError):
            synthesize_geodesic(mink, mink_bundle, P, Q, c=0.5, depth=0)

    def test_puncture_failure_propagates(self, punctured, punctured_bundle):
        with pytest.raises(MidpointUnavailable):
            synthesize_geodesic(punctured, punctured_bundle, P, Q, c=0.5, depth=4)


class TestCurveSerialization:
    def test_roundtrip(self, mink, mink_bundle):
        curve = build_dyadic_curve(mink, mink_bundle, P, (2.0, 1.0), c=0.5, depth=4)
        payload = curve.as_dict()
        assert payload["mode"] == "exact"
        assert {"k", "n", "point"} == set(payload["values"][0])
        clone = DyadicCurve.from_dict(mink, mink_bundle, payload)
        assert clone.values == curve.values
        assert clone.depth == curve.depth

    def test_lowest_terms_keys(self, mink, mink_bundle):
        curve = build_dyadic_curve(mink, mink_bundle, P, Q, c=0.5, depth=3)
        entries = {(e["k"], e["n"]) for e in curve.as_dict()["values"]}
        assert (1, 1) in entries
        assert (1, 3) in entries
        assert (2, 2) not in entries  # 2/4 reduces to 1/2

    def test_causet_points_roundtrip_as_ids(self):
        space = chain_space(4)
        from causalgeo import causet_time_bundle
        bundle = causet_time_bundle(space)
        curve = build_dyadic_curve(space, bundle, "v0", "v4", c=0.5, depth=2)
        clone = DyadicCurve.from_dict(space, bundle, curve.as_dict())
        assert clone.values == curve.values
        assert clone.point_at(Fraction(1, 2)) == "v2"


# -- streamed curve.json -----------------------------------------------------------


@st.composite
def flat_curves(draw):
    """Exact or approximate curves on Minkowski 1+1, 1+2 and 1+3, some with
    the affine midpoint of the endpoints punctured (approximate mode then
    leaves the affine line)."""
    dim = draw(st.integers(1, 3))
    coord = st.floats(-2.0, 2.0, allow_nan=False)
    p = tuple(draw(coord) for _ in range(dim + 1))
    dt = draw(st.floats(0.1, 3.0))
    q = (p[0] + dt, *(a + dt * draw(st.floats(-0.5, 0.5)) / dim for a in p[1:]))
    mode = draw(st.sampled_from(["exact", "approximate"]))
    if mode == "approximate" and draw(st.booleans()):
        space = PuncturedMinkowski(dim, removed=[PlaneFrame(p, q).midpoint()])
    else:
        space = MinkowskiSpace(dim)
    epsilon = 0.0
    if mode == "approximate":
        epsilon = draw(st.floats(0.05, 0.5)) * space.tau(p, q)
    return build_dyadic_curve(space, canonical_time_bundle(space), p, q,
                              c=draw(st.sampled_from([0.25, 0.4, 0.5])),
                              depth=draw(st.integers(1, 8)), mode=mode, epsilon=epsilon)


_ID_CHARS = st.sampled_from(['a', 'Z', '7', '"', '\\', '/', '\n', '\t', '\x00', 'é', 'ß',
                             '\u2603', '\U0001f600', ' '])


@st.composite
def causet_curves(draw):
    """Null-branch curves along a chain of vertices with awkward ids."""
    ids = draw(st.lists(st.text(_ID_CHARS, min_size=1, max_size=5),
                        min_size=2, max_size=6, unique=True))
    space = CausalSetSpace([(v, i) for i, v in enumerate(ids)],
                           [(a, b, 1) for a, b in zip(ids, ids[1:])])
    return _null_branch_curve(space, causet_time_bundle(space), ids[0], ids[-1],
                              0.5, draw(st.integers(1, 8)))


@st.composite
def null_flat_curves(draw):
    space = MinkowskiSpace(2)
    p = (draw(st.floats(-1.0, 1.0)), 0.0, 0.0)
    dt = draw(st.floats(0.1, 2.0))
    q = (p[0] + dt, dt, 0.0)
    return _null_branch_curve(space, canonical_time_bundle(space), p, q, 0.5,
                              draw(st.integers(1, 8)))


@st.composite
def raw_curves(draw):
    """Stored points as given: non-finite floats and integer coordinates too."""
    depth = draw(st.integers(1, 4))
    coord = st.floats(allow_nan=True, allow_infinity=True) | st.integers(-10**20, 10**20)
    points = [tuple(draw(st.lists(coord, min_size=0, max_size=3)))
              for _ in range((1 << depth) + 1)]
    space = MinkowskiSpace(2)
    return DyadicCurve(space, canonical_time_bundle(space), points[0], points[-1],
                       draw(st.floats(0.01, 0.5)), depth, "exact",
                       draw(st.floats(allow_nan=True, allow_infinity=True)), points)


class TestStreamedJson:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.one_of(flat_curves(), causet_curves(), null_flat_curves(), raw_curves()))
    def test_chunks_equal_json_dumps(self, curve):
        expected = json.dumps(curve.as_dict(), indent=2, sort_keys=True) + "\n"
        assert "".join(curve.json_chunks()) == expected


class TestTauBudget:
    def test_each_adjacent_tau_is_evaluated_once(self, monkeypatch):
        calls = []
        plain = MinkowskiSpace.tau

        def counted(self, x, y):
            calls.append(None)
            return plain(self, x, y)

        monkeypatch.setattr(MinkowskiSpace, "tau", counted)
        space = MinkowskiSpace(2)
        depth = 10
        build_dyadic_curve(space, canonical_time_bundle(space), (0.0, 0.0, 0.0),
                           (2.0, 0.5, -0.3), c=0.5, depth=depth)
        midpoints = (1 << depth) - 1
        assert len(calls) <= 2 * midpoints + 4


class TestDepthLimit:
    def test_one_level_past_the_limit_is_refused_before_any_work(self, monkeypatch):
        def no_geometry(*args):
            raise AssertionError("the geometry was queried")

        monkeypatch.setattr(MinkowskiSpace, "tau", no_geometry)
        monkeypatch.setattr(MinkowskiSpace, "chronological", no_geometry)
        monkeypatch.setattr(MinkowskiSpace, "causal_le", no_geometry)
        space = MinkowskiSpace(1)
        bundle = canonical_time_bundle(space)
        with pytest.raises(BudgetExceeded, match=f"limit of {MAX_DEPTH} levels"):
            build_dyadic_curve(space, bundle, P, Q, c=0.5, depth=MAX_DEPTH + 1)
        with pytest.raises(BudgetExceeded, match=f"limit of {MAX_DEPTH} levels"):
            synthesize_geodesic(space, bundle, P, Q, c=0.5, depth=MAX_DEPTH + 1)
