"""Midpoint predicates, search, lens/strip geometry, compatibility."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from causalgeo import (CausalSetSpace, LensStrip, MidpointQuery, MinkowskiSpace,
                       PiecewiseCausalCurve, PuncturedMinkowski,
                       approximate_midpoint_from_curve,
                       canonical_time_bundle, certify_compatibility,
                       cubic_time_bundle, find_midpoint, is_eps_tau_midpoint,
                       lens_in_strip_epsilon, midpoint_from_realizer, replay)
from causalgeo.core import make_rng
from causalgeo.errors import (CurveTooShort, DegenerateStrip,
                              MidpointBoundsViolated, NotARealizer,
                              NotChronological, UnsupportedBackend)
from causalgeo.midpoints import _flat_search, _search_with_taus, _strip_margin, affine_midpoint
from causalgeo.spaces import PlaneFrame
from conftest import count_tau_evaluations

P, Q = (0.0, 0.0), (2.0, 0.0)


class TestIsEpsMidpoint:
    def test_exact_center(self, mink):
        assert is_eps_tau_midpoint(mink, P, Q, (1.0, 0.0), 0.0)

    def test_off_axis_point_is_not_exact(self, mink):
        y = (1.0, 0.5)
        assert mink.tau(P, y) == pytest.approx(math.sqrt(0.75))
        assert not is_eps_tau_midpoint(mink, P, Q, y, 0.0)

    def test_off_axis_point_within_eps(self, mink):
        y = (1.0, 0.3)
        half_gap = abs(mink.tau(P, y) - 1.0)
        assert half_gap == pytest.approx(1.0 - math.sqrt(0.91), abs=1e-12)
        assert half_gap < 0.1
        assert is_eps_tau_midpoint(mink, P, Q, y, 0.1)
        assert not is_eps_tau_midpoint(mink, P, Q, y, 0.01)

    def test_exact_implies_every_eps(self, mink, diamond):
        for eps in (1e-6, 0.01, 0.3):
            assert is_eps_tau_midpoint(mink, P, Q, (1.0, 0.0), eps)
            assert is_eps_tau_midpoint(diamond, "p", "q", "a", eps)


class TestFindMidpoint:
    def test_minkowski_exact(self, mink, mink_bundle):
        found = find_midpoint(mink, mink_bundle, MidpointQuery(p=P, q=Q))
        assert found == (1.0, 0.0)

    def test_boosted_exact(self, mink, mink_bundle):
        found = find_midpoint(mink, mink_bundle, MidpointQuery(p=P, q=(2.0, 1.0)))
        assert found == pytest.approx((1.0, 0.5), abs=1e-9)

    def test_punctured_exact_not_found(self, punctured, punctured_bundle):
        found = find_midpoint(punctured, punctured_bundle, MidpointQuery(p=P, q=Q))
        assert found is None

    def test_punctured_approximate_found(self, punctured, punctured_bundle):
        found = find_midpoint(punctured, punctured_bundle,
                              MidpointQuery(p=P, q=Q, epsilon=0.01))
        assert found is not None
        assert found != (1.0, 0.0)
        assert is_eps_tau_midpoint(punctured, P, Q, found, 0.01)
        # Feasible offsets delta obey sqrt(1 - delta^2) > 1 - eps.
        assert abs(found[1]) < math.sqrt(1 - 0.99 ** 2)

    def test_diamond_tie_break_prefers_smaller_id(self, diamond, diamond_bundle):
        found = find_midpoint(diamond, diamond_bundle, MidpointQuery(p="p", q="q"))
        assert found == "a"

    def test_discrete_not_found_is_definitive(self, diamond, diamond_bundle):
        found = find_midpoint(diamond, diamond_bundle, MidpointQuery(p="p", q="a"))
        assert found is None

    def test_not_chronological(self, mink, mink_bundle):
        with pytest.raises(NotChronological):
            find_midpoint(mink, mink_bundle, MidpointQuery(p=P, q=(0.0, 1.0)))

    def test_query_validation(self):
        with pytest.raises(ValueError):
            MidpointQuery(p=P, q=Q, c=0.6)
        with pytest.raises(ValueError):
            MidpointQuery(p=P, q=Q, epsilon=0.1, epsilon_hat=0.1)
        with pytest.raises(ValueError):
            MidpointQuery(p=P, q=Q, epsilon=-1.0)

    def test_relative_epsilon_resolves_against_tau(self, punctured, punctured_bundle):
        found = find_midpoint(punctured, punctured_bundle,
                              MidpointQuery(p=P, q=Q, epsilon_hat=0.005))
        assert found is not None
        assert is_eps_tau_midpoint(punctured, P, Q, found, 0.01)


def _cubic_miss():
    space = MinkowskiSpace(1)
    return space, cubic_time_bundle(space, half_width=0.5), P, Q, 0.3, 0.45, (1.55, 0.0)


def _punctured_miss():
    # The affine midpoint is removed, so the slice point must step off it,
    # inside a lens about 1000 times wider in space than tau.
    space = PuncturedMinkowski(1, removed=[(1.0, 0.9999995)])
    return (space, canonical_time_bundle(space), P, (2.0, 1.999999), 0.1, 0.5,
            (1.0, 0.9999995 + 1e-8))


@pytest.mark.parametrize("case", [_cubic_miss, _punctured_miss], ids=["cubic", "punctured"])
class TestFlatSearchMisses:
    """Two pairs whose lens and strip share a point away from the affine
    midpoint: t^3 moves the best level off it, and the puncture removes it
    from a lens about 1000 times wider in space than tau."""

    def test_witness_lies_in_lens_and_strip(self, case):
        space, bundle, p, q, eps_hat, c, y = case()
        lens = LensStrip(space, bundle, p, q, float(space.tau(p, q)) * eps_hat, c)
        assert space.contains(y) and lens.in_lens(y) and lens.in_strip(y)

    def test_search_finds_a_point(self, case):
        space, bundle, p, q, eps_hat, c, _ = case()
        query = MidpointQuery(p=p, q=q, c=c, epsilon_hat=eps_hat)
        y = find_midpoint(space, bundle, query)
        lens = LensStrip(space, bundle, p, q, float(space.tau(p, q)) * eps_hat, c)
        assert y is not None and lens.in_lens(y) and lens.in_strip(y)

    def test_search_makes_at_most_four_tau_calls(self, case, monkeypatch):
        # The slice point and one step off a removed point, two halves each.
        space, bundle, p, q, eps_hat, c, _ = case()
        tau_pq = space.tau(p, q)
        calls = count_tau_evaluations(monkeypatch)
        assert _search_with_taus(space, bundle, p, q, tau_pq * eps_hat, c, 1e-9,
                                 tau_pq) is not None
        assert 0 < len(calls) <= 4


@st.composite
def flat_search_cases(draw, kind):
    """A chronological pair and eps for the flat search: t^3 on R^{1,1} or
    R^{1,2}, or coordinate time on R^{1,1} with the affine midpoint removed."""
    dim = 2 if kind == "cubic-1+2" else 1
    p = (draw(st.floats(-1.5, 1.5)), *(draw(st.floats(-1.0, 1.0)) for _ in range(dim)))
    dt = draw(st.floats(0.2, 2.0))
    speed, angle = draw(st.floats(0.0, 0.9)), draw(st.floats(0.0, 2 * math.pi))
    direction = (1.0,) if dim == 1 else (math.cos(angle), math.sin(angle))
    q = (p[0] + dt, *(a + speed * dt * u for a, u in zip(p[1:], direction)))
    if kind == "punctured-1+1":
        space = PuncturedMinkowski(1, removed=[affine_midpoint(p, q)])
        bundle = canonical_time_bundle(space)
    else:
        space = MinkowskiSpace(dim)
        bundle = cubic_time_bundle(space)
    return space, bundle, p, q, draw(st.floats(0.02, 0.45)) * space.tau(p, q)


def _best_scanned_margin(space, bundle, p, q, eps, levels=24):
    """The largest strip margin among lens points of a coarse scan: each of
    ``levels`` lab-time levels, on a grid over the box that bounds the causal
    diamond in space (off the p-q plane too in 1+2), or None."""
    lens = LensStrip(space, bundle, p, q, eps, 0.5)
    dt, dim = q[0] - p[0], len(p) - 1
    grid = [-dt / 2 + dt * k / (levels - 1) for k in range(levels)]
    best = None
    for i in range(1, levels):
        t = p[0] + dt * i / levels
        for offsets in itertools.product(grid, repeat=dim):
            y = (t, *((a + b) / 2 + o for a, b, o in zip(p[1:], q[1:], offsets)))
            if space.contains(y) and lens.in_lens(y):
                margin = _strip_margin(bundle, p, q, y)
                best = margin if best is None else max(best, margin)
    return best


class TestFlatSearchAgainstScan:
    """The flat search selects the most central lens point: wherever a scan
    finds a lens point, the search finds one at least as central."""

    @pytest.mark.parametrize("kind", ["cubic-1+1", "cubic-1+2", "punctured-1+1"])
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_search_is_at_least_as_central_as_the_scan(self, kind, data):
        space, bundle, p, q, eps = data.draw(flat_search_cases(kind))
        best = _best_scanned_margin(space, bundle, p, q, eps)
        assume(best is not None)
        found = _search_with_taus(space, bundle, p, q, eps, None, 1e-9, space.tau(p, q))
        assert found is not None
        assert _strip_margin(bundle, p, q, found[0]) >= best - 1e-6
        for removed in space.removed:
            assert max(abs(a - b) for a, b in zip(found[0], removed)) > 1e-9

    @pytest.mark.parametrize("p, q, eps_hat, c", [
        ((1.0, 0.0), (2.0, 0.0), 4e-10, 0.3),
        ((1.0, 0.0), (2.0, 0.0), 1e-10, 0.3),
        ((1.0, 0.0), (2.0, 0.0), 1e-13, 0.3),
        ((0.75, 0.2), (2.65, 1.7), 1e-15, None),
    ])
    def test_lens_narrower_than_tol_still_yields_a_point(self, p, q, eps_hat, c):
        # Near its rest frame the lens spans lab times t_mid -/+ eps, here
        # narrower than the absolute tolerance; the dyadic build reaches such
        # eps as epsilon / 4**level.  In the last, boosted case rounding leaves
        # the slice point outside the lens, and the affine midpoint answers.
        space = MinkowskiSpace(1)
        bundle = cubic_time_bundle(space)
        tau_pq = space.tau(p, q)
        eps = tau_pq * eps_hat
        found = _search_with_taus(space, bundle, p, q, eps, c, 1e-9, tau_pq)
        assert found is not None
        assert is_eps_tau_midpoint(space, p, q, found[0], eps)


class TestLensStrip:
    def test_exact_lens_degenerates_to_midpoint(self, mink, mink_bundle):
        lens = LensStrip(mink, mink_bundle, (0.0, 0.0), (4.0, 0.0), 0.0, 0.4)
        assert lens.in_lens((2.0, 0.0))
        assert not lens.in_lens((2.0, 0.1))

    def test_strip_levels_and_width(self, mink, mink_bundle):
        lens = LensStrip(mink, mink_bundle, (0.0, 0.0), (4.0, 0.0), 0.1, 0.4)
        assert lens.strip_levels == (pytest.approx(1.6), pytest.approx(2.4))
        low, high = lens.strip_levels
        assert high - low == pytest.approx(0.2 * 4.0)
        assert lens.in_strip((2.0, 1.7))
        assert not lens.in_strip((1.5, 0.0))

    def test_half_strip_degenerates_to_line(self, mink, mink_bundle):
        lens = LensStrip(mink, mink_bundle, (0.0, 0.0), (4.0, 0.0), 0.1, 0.5)
        assert lens.strip_levels[0] == pytest.approx(lens.strip_levels[1])
        assert lens.in_strip((2.0, 0.3))
        assert not lens.in_strip((2.1, 0.0))

    def test_boundary_points_lie_on_hyperbolas(self, mink, mink_bundle):
        p, q = (0.0, 0.0), (4.0, 0.0)
        eps = 0.25
        lens = LensStrip(mink, mink_bundle, p, q, eps, 0.4)
        radius = 2.0 - eps
        polys = dict(lens.boundary_polylines(101))
        assert len(polys["lens_p"]) == 101
        for y in polys["lens_p"]:
            assert mink.tau(p, y) == pytest.approx(radius, abs=1e-9)
            assert mink.tau(y, q) >= radius - 1e-9
        for y in polys["lens_q"]:
            assert mink.tau(y, q) == pytest.approx(radius, abs=1e-9)

    def test_boosted_arcs_run_between_the_lens_corners(self, mink, mink_bundle):
        # Neither arc vertex lies on this lens, so both arcs end at corners.
        p, q, eps = (0.0, 0.0), (4.0, 3.0), 0.1
        lens = LensStrip(mink, mink_bundle, p, q, eps, 0.3)
        radius = mink.tau(p, q) / 2 - eps
        polys = dict(lens.boundary_polylines(101))
        arc_p, arc_q = polys["lens_p"], polys["lens_q"]
        for y in arc_p:
            assert mink.tau(p, y) == pytest.approx(radius, abs=1e-9)
            assert mink.tau(y, q) >= radius - 1e-9
        for y in arc_q:
            assert mink.tau(y, q) == pytest.approx(radius, abs=1e-9)
            assert mink.tau(p, y) >= radius - 1e-9
        assert arc_p[0] == pytest.approx(arc_q[-1], abs=1e-9)
        assert arc_p[-1] == pytest.approx(arc_q[0], abs=1e-9)

    def test_boundary_needs_flat_1plus1(self, diamond, diamond_bundle):
        lens = LensStrip(diamond, diamond_bundle, "p", "q", 0.5, 0.25)
        assert lens.in_lens("a")
        with pytest.raises(UnsupportedBackend):
            lens.boundary_polylines()

    def test_lens_monotone_in_eps(self, mink, mink_bundle):
        rng = make_rng(13)
        p, q = (0.0, 0.0), (2.0, 0.0)
        small = LensStrip(mink, mink_bundle, p, q, 0.05, 0.4)
        large = LensStrip(mink, mink_bundle, p, q, 0.2, 0.4)
        hits = 0
        for _ in range(500):
            y = (rng.uniform(0.0, 2.0), rng.uniform(-1.0, 1.0))
            if small.in_lens(y):
                hits += 1
                assert large.in_lens(y)
        assert hits > 0

    def test_strip_antitone_in_c(self, mink, mink_bundle):
        rng = make_rng(14)
        p, q = (0.0, 0.0), (2.0, 0.0)
        loose = LensStrip(mink, mink_bundle, p, q, 0.1, 0.1)
        tight = LensStrip(mink, mink_bundle, p, q, 0.1, 0.45)
        hits = 0
        for _ in range(500):
            y = (rng.uniform(0.0, 2.0), rng.uniform(-1.0, 1.0))
            if tight.in_strip(y):
                hits += 1
                assert loose.in_strip(y)
        assert hits > 0


# Boosted pairs from (0, 0) on which the sampled-polyline search overshot,
# ended wherever its shrinking steps stopped, or raised; with c and eps* to
# the digits first quoted for them.
BOOSTED_PAIRS = [((4.0, 1.5), 0.4, 0.25404962), ((4.0, 1.0), 0.4, 0.33649167),
                 ((4.0, 0.5), 0.3, 0.78431348), ((4.0, 2.0), 0.4, 0.144600),
                 ((4.0, 2.5), 0.4, 0.0820943), ((4.0, 3.0), 0.3, 0.2038483)]


def _lens_time_range(p, q, eps):
    """Earliest and latest lab times of the closed eps-lens of p << q on R^{1,1}.

    Worked in the lab frame: the extremes lie at the two corners, the
    midpoint moved by sqrt(eps (tau - eps)) along the unit normal to q - p,
    or at an arc vertex p + (r, 0) or q - (r, 0) that lies on the lens.
    """
    mink = MinkowskiSpace(1)
    tau = mink.tau(p, q)
    r, w = tau / 2 - eps, math.sqrt(eps * (tau - eps))
    shift = w * abs(q[1] - p[1]) / tau
    times = [(p[0] + q[0]) / 2 - shift, (p[0] + q[0]) / 2 + shift]
    if mink.tau((p[0] + r, p[1]), q) >= r:
        times.append(p[0] + r)
    if mink.tau(p, (q[0] - r, q[1])) >= r:
        times.append(q[0] - r)
    return min(times), max(times)


def _sharp_epsilon(p, q, c):
    """The largest eps whose lens fits the coordinate-time strip, by bisection."""
    a, b = (1 - c) * p[0] + c * q[0], c * p[0] + (1 - c) * q[0]
    lo, hi = 0.0, MinkowskiSpace(1).tau(p, q) / 2
    for _ in range(200):
        mid = (lo + hi) / 2
        t_min, t_max = _lens_time_range(p, q, mid)
        if t_min >= a and t_max <= b:
            lo = mid
        else:
            hi = mid
    return lo


def _sampled_lens_boundary(space, p, q, eps, samples=2001):
    """Dense samples of the level sets tau(p, .) = r and tau(., q) = r, r = tau/2 - eps,
    between the points where each meets the other condition (found by
    bisection), plus each arc's vertex when it lies between them."""
    r = space.tau(p, q) / 2 - eps
    axis = math.atanh((q[1] - p[1]) / (q[0] - p[0]))
    points = []
    for sign, center in ((1.0, p), (-1.0, q)):
        def at(theta):
            return (center[0] + sign * r * math.cosh(theta),
                    center[1] + sign * r * math.sinh(theta))

        def inside(theta):
            y = at(theta)
            return (space.tau(y, q) if sign > 0 else space.tau(p, y)) >= r

        ends = []
        for far in (axis - 20.0, axis + 20.0):
            near = axis  # on the segment pq, so inside the lens
            for _ in range(100):
                mid = (near + far) / 2
                near, far = (mid, far) if inside(mid) else (near, mid)
            ends.append(near)
        thetas = [ends[0] + (ends[1] - ends[0]) * i / (samples - 1) for i in range(samples)]
        if ends[0] <= 0.0 <= ends[1]:
            thetas.append(0.0)
        points.extend(at(theta) for theta in thetas)
    return points


class TestLensInStrip:
    def test_vertical_pair_matches_closed_form(self, mink, mink_bundle):
        # For this layout the sharp threshold is (1/2 - c) * tau = 0.4.
        eps = lens_in_strip_epsilon(mink, mink_bundle, (0.0, 0.0), (4.0, 0.0), 0.4)
        assert eps > 0
        assert eps <= 0.4 + 1e-9
        assert eps == pytest.approx(0.4, rel=1e-6)

    def test_grows_as_strip_widens(self, mink, mink_bundle):
        tight = lens_in_strip_epsilon(mink, mink_bundle, (0.0, 0.0), (4.0, 0.0), 0.4)
        wide = lens_in_strip_epsilon(mink, mink_bundle, (0.0, 0.0), (4.0, 0.0), 0.1)
        assert wide > tight

    def test_boosted_pair_containment_verifies(self, mink, mink_bundle):
        # Off-axis pairs put the lens extrema at hyperbola-hyperbola
        # intersections; the search still has to verify containment there.
        p, q = (0.0, 0.0), (4.0, 1.5)
        eps = lens_in_strip_epsilon(mink, mink_bundle, p, q, 0.4)
        assert eps > 0
        lens = LensStrip(mink, mink_bundle, p, q, eps, 0.4, tol=0.0)
        for _, poly in lens.boundary_polylines(301):
            assert all(lens.in_strip(y) for y in poly)

    def test_degenerate_strip(self, mink, mink_bundle):
        with pytest.raises(DegenerateStrip):
            lens_in_strip_epsilon(mink, mink_bundle, (0.0, 0.0), (4.0, 0.0), 0.5)

    def test_spacelike_pair_rejected(self, mink, mink_bundle):
        with pytest.raises(NotChronological):
            lens_in_strip_epsilon(mink, mink_bundle, (0.0, 0.0), (0.0, 4.0), 0.4)

    @pytest.mark.parametrize("q, c, quoted", BOOSTED_PAIRS)
    def test_boosted_pairs_give_the_sharp_epsilon(self, mink, mink_bundle, q, c, quoted):
        eps = lens_in_strip_epsilon(mink, mink_bundle, (0.0, 0.0), q, c)
        assert eps == pytest.approx(_sharp_epsilon((0.0, 0.0), q, c), abs=1e-12)
        assert eps == pytest.approx(quoted, abs=1e-6)

    # c stays 0.01 away from 0 and 1/2: nearer 1/2, eps* falls toward 1e-14,
    # and the bisected arc ends of the sampled oracle carry about 1e-10 of
    # rounding in lab time, more than either tolerance below.
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(t_p=st.floats(-2.0, 2.0), x_p=st.floats(-1.0, 1.0), dt=st.floats(0.5, 4.0),
           v=st.floats(-0.95, 0.95), c=st.floats(0.01, 0.49), cubic=st.booleans())
    def test_epsilon_is_sharp_on_sampled_level_sets(self, t_p, x_p, dt, v, c, cubic):
        space = MinkowskiSpace(1)
        bundle = cubic_time_bundle(space) if cubic else canonical_time_bundle(space)
        p, q = (t_p, x_p), (t_p + dt, x_p + v * dt)
        lo, hi = LensStrip(space, bundle, p, q, 0.0, c).strip_levels
        if not lo <= bundle.time(((p[0] + q[0]) / 2, 0.0)) <= hi:
            assert cubic
            with pytest.raises(DegenerateStrip):
                lens_in_strip_epsilon(space, bundle, p, q, c)
            return
        eps = lens_in_strip_epsilon(space, bundle, p, q, c)
        tol = 1e-12 * max(1.0, abs(lo), abs(hi))
        times = [bundle.time(y) for y in _sampled_lens_boundary(space, p, q, eps)]
        assert lo - tol <= min(times) and max(times) <= hi + tol
        times = [bundle.time(y) for y in _sampled_lens_boundary(space, p, q, eps * (1 + 1e-6))]
        assert min(times) < lo or max(times) > hi


class TestCompatibility:
    def test_minkowski_affine_midpoints_give_half(self, mink, mink_bundle):
        cert = certify_compatibility(mink, mink_bundle, c=0.5, epsilon_hat=0.0,
                                     sample_budget=50, seed=3)
        assert cert.passed
        assert cert.data["best_c_min"] == pytest.approx(0.5)

    def test_diamond_passes_at_half(self, diamond, diamond_bundle):
        cert = certify_compatibility(diamond, diamond_bundle, c=0.5, epsilon_hat=0.0,
                                     sample_budget=64)
        assert cert.passed
        assert cert.data["best_c_min"] == Fraction(1, 2)
        assert cert.data["pairs_without_midpoint"] == 4

    def test_skewed_diamond_threshold_is_exact(self, skewed_diamond, skewed_bundle):
        passing = certify_compatibility(skewed_diamond, skewed_bundle, c=0.1,
                                        epsilon_hat=0.0, sample_budget=64)
        assert passing.passed
        assert passing.data["best_c_min"] == Fraction(0.2) / 2
        failing = certify_compatibility(skewed_diamond, skewed_bundle, c=0.11,
                                        epsilon_hat=0.0, sample_budget=64)
        assert not failing.passed
        a, b, best_c, midpoint = failing.witness
        assert (a, b) == ("p", "q")
        assert best_c == Fraction(0.2) / 2
        assert midpoint in ("a", "b")
        assert replay(failing, skewed_diamond, skewed_bundle)

    def test_validation(self, mink, mink_bundle):
        with pytest.raises(ValueError):
            certify_compatibility(mink, mink_bundle, c=0.0, epsilon_hat=0.0)


class TestMidpointFromRealizer:
    def test_straight_segment(self, mink):
        curve = PiecewiseCausalCurve.future_chain(mink, ((0.0, 0.0), (2.0, 0.0)))
        assert midpoint_from_realizer(mink, curve) == pytest.approx((1.0, 0.0))

    def test_boosted_segment_halves_tau(self, mink):
        curve = PiecewiseCausalCurve.future_chain(mink, ((0.0, 0.0), (2.0, 1.0)))
        y = midpoint_from_realizer(mink, curve)
        assert y == pytest.approx((1.0, 0.5), abs=1e-9)
        whole = mink.tau((0.0, 0.0), (2.0, 1.0))
        assert mink.tau((0.0, 0.0), y) == pytest.approx(whole / 2, abs=2e-9)
        assert mink.tau(y, (2.0, 1.0)) == pytest.approx(whole / 2, abs=2e-9)

    def test_multi_joint_realizer(self, mink):
        joints = tuple((0.5 * i, 0.25 * i) for i in range(5))
        curve = PiecewiseCausalCurve.future_chain(mink, joints)
        y = midpoint_from_realizer(mink, curve)
        assert y == pytest.approx((1.0, 0.5), abs=1e-9)

    def test_causet_chain_lands_on_cumulative_half(self):
        ids = ["v0", "v1", "v2", "v3", "v4"]
        space = CausalSetSpace(
            [(v, i) for i, v in enumerate(ids)],
            [(a, b, 1) for a, b in zip(ids, ids[1:])])
        curve = PiecewiseCausalCurve.future_chain(space, ids)
        assert midpoint_from_realizer(space, curve) == "v2"

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(dim=st.sampled_from([1, 2]),
           p=st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3),
           dx=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2),
           margin=st.floats(0.5, 4.0),
           cuts=st.lists(st.integers(1, 63), max_size=6, unique=True))
    def test_straight_future_chain_halves_tau(self, dim, p, dx, margin, cuts):
        space = MinkowskiSpace(dim)
        p, dx = tuple(p[:1 + dim]), dx[:dim]
        q = (p[0] + math.hypot(*dx) + margin, *(a + d for a, d in zip(p[1:], dx)))
        joints = [p, *(space.interpolate(p, q, k / 64) for k in sorted(cuts)), q]
        y = midpoint_from_realizer(space, PiecewiseCausalCurve.future_chain(space, joints))
        half = space.tau(p, q) / 2
        assert abs(space.tau(p, y) - half) <= 1e-12
        assert abs(space.tau(y, q) - half) <= 1e-12

    def test_not_a_realizer(self, mink):
        curve = PiecewiseCausalCurve.future_chain(
            mink, ((0.0, 0.0), (1.0, 0.5), (2.0, 0.0)))
        with pytest.raises(NotARealizer):
            midpoint_from_realizer(mink, curve)


class TestApproximateMidpointFromCurve:
    def _near_realizer(self, mink, eps):
        # Two-segment polyline with tau-length exactly tau - eps/2.
        w = math.sqrt(1.0 - (1.0 - eps / 4.0) ** 2)
        curve = PiecewiseCausalCurve.future_chain(
            mink, ((0.0, 0.0), (1.0, w), (2.0, 0.0)))
        return curve, w

    def test_realizer_input_gives_exact_midpoint(self, mink):
        curve = PiecewiseCausalCurve.future_chain(mink, ((0.0, 0.0), (2.0, 0.0)))
        y = approximate_midpoint_from_curve(mink, (0.0, 0.0), (2.0, 0.0), curve, 0.5)
        assert y == pytest.approx((1.0, 0.0))

    def test_near_realizer_meets_bounds(self, mink):
        eps = 0.4
        curve, w = self._near_realizer(mink, eps)
        assert curve.tau_length() == pytest.approx(2.0 - eps / 2, abs=1e-12)
        y = approximate_midpoint_from_curve(mink, (0.0, 0.0), (2.0, 0.0), curve, eps)
        assert y == pytest.approx((1.0, w), abs=1e-9)
        assert is_eps_tau_midpoint(mink, (0.0, 0.0), (2.0, 0.0), y, eps)

    def test_too_short_curve(self, mink):
        eps = 0.1
        w = math.sqrt(1.0 - (1.0 - eps) ** 2)  # length = 2 - 2 eps < tau - eps
        curve = PiecewiseCausalCurve.future_chain(
            mink, ((0.0, 0.0), (1.0, w), (2.0, 0.0)))
        with pytest.raises(CurveTooShort):
            approximate_midpoint_from_curve(mink, (0.0, 0.0), (2.0, 0.0), curve, eps)

    def test_endpoint_mismatch(self, mink):
        curve = PiecewiseCausalCurve.future_chain(mink, ((0.0, 0.0), (2.0, 0.0)))
        with pytest.raises(ValueError):
            approximate_midpoint_from_curve(mink, (0.0, 0.0), (2.0, 0.1), curve, 0.1)

    def test_coarse_discrete_curve_can_miss_the_bounds(self):
        # A chain whose cumulative weights only offer a lopsided half point:
        # the curve is long enough, but no joint bisects it within eps.
        space = CausalSetSpace(
            [("v0", 0.0), ("v1", 1.9), ("v2", 2.0)],
            [("v0", "v1", 1.9), ("v1", "v2", 0.1)])
        curve = PiecewiseCausalCurve.future_chain(space, ("v0", "v1", "v2"))
        with pytest.raises(MidpointBoundsViolated):
            approximate_midpoint_from_curve(space, "v0", "v2", curve, 0.5)


@st.composite
def chronological_pairs(draw):
    """A chronological pair in Minkowski 1+1, 1+2 or 1+3."""
    dim = draw(st.sampled_from([1, 2, 3]))
    coord = st.floats(-10.0, 10.0, allow_nan=False)
    p = tuple(draw(coord) for _ in range(1 + dim))
    dx = [draw(st.floats(-5.0, 5.0, allow_nan=False)) for _ in range(dim)]
    dt = math.hypot(*dx) + draw(st.floats(0.01, 5.0, allow_nan=False))
    q = (p[0] + dt, *(a + d for a, d in zip(p[1:], dx)))
    return dim, p, q


class TestClosedFormMidpoint:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(chronological_pairs())
    def test_affine_midpoint_is_tau_midpoint(self, case):
        dim, p, q = case
        space = MinkowskiSpace(dim)
        assume(space.chronological(p, q))
        m = find_midpoint(space, canonical_time_bundle(space), MidpointQuery(p, q))
        assert m is not None
        assert is_eps_tau_midpoint(space, p, q, m, 0.0)
        scale = max(1.0, *map(abs, p), *map(abs, q))
        assert all(abs(mi - (pi + qi) / 2) <= 1e-12 * scale
                   for pi, qi, mi in zip(p, q, m))


def _bits(values):
    return [float(v).hex() for v in values]


@st.composite
def flat_level_cases(draw):
    """Chronological pairs sharing one flat space, bundle, eps and c: in 1+1
    to 1+3, with coordinate time or t^3, at eps = 0 or eps > 0 (a fraction
    of the smallest tau), and on a punctured space whose removed points are
    the affine midpoints of every other pair."""
    dim = draw(st.integers(1, 3))
    pairs = []
    for _ in range(draw(st.integers(1, 24))):
        p = tuple(draw(st.floats(-2.0, 2.0)) for _ in range(1 + dim))
        dx = [draw(st.floats(-2.0, 2.0)) for _ in range(dim)]
        dt = math.hypot(*dx) + draw(st.floats(0.01, 2.0))
        pairs.append((p, (p[0] + dt, *(a + d for a, d in zip(p[1:], dx)))))
    if draw(st.booleans()):
        space = PuncturedMinkowski(dim, removed=[affine_midpoint(p, q) for p, q in pairs[::2]])
    else:
        space = MinkowskiSpace(dim)
    bundle = draw(st.sampled_from([canonical_time_bundle, cubic_time_bundle]))(space)
    pairs = [(p, q) for p, q in pairs if space.chronological(p, q)]
    assume(pairs)
    eps_hat = draw(st.sampled_from([0.0, 1e-12, 0.01, 0.2, 0.6]))
    eps = eps_hat * min(space.tau(p, q) for p, q in pairs)
    return space, bundle, pairs, eps, draw(st.sampled_from([None, 0.2, 0.45]))


def _scalar_search(space, bundle, p, q, eps, c, tol, tau_pq):
    """The flat search of one pair step by step in Python floats, as its
    docstring states it: an independent reference for the row-wise one."""
    t_center, half = (bundle.time(p) + bundle.time(q)) / 2, tau_pq / 2
    guard = max(tol, 1e-12)

    def admissible(y):
        if any(max(abs(a - b) for a, b in zip(y, rp)) <= guard for rp in space.removed):
            return None
        left, right = space.tau(p, y), space.tau(y, q)
        if eps == 0:
            halves = abs(left - half) <= tol and abs(right - half) <= tol
        else:
            halves = abs(left - half) < eps and abs(right - half) < eps
        if halves and (c is None or _strip_margin(bundle, p, q, y) >= c - tol):
            return y, left, right
        return None

    exact = affine_midpoint(p, q)
    if eps == 0:
        return admissible(exact)
    exact_first = bundle.time(exact) == t_center
    found = admissible(exact) if exact_first else None
    if found is not None:
        return found
    frame = PlaneFrame(p, q)
    tp, tq, span = p[0], q[0], frame.span
    r = max(half - eps, 0.0)
    h, s = math.sqrt(half * half - r * r), span / tau_pq
    reach = r if s * r <= h else (tq - tp) / 2 - s * h
    inset = min(tol, (tq - tp - 2 * reach) / 4)
    t = min(max(bundle.f_inverse(t_center), tp + reach + inset), tq - reach - inset)
    r_p = math.sqrt(max((t - tp) ** 2 - r * r, 0.0))
    r_q = math.sqrt(max((tq - t) ** 2 - r * r, 0.0))
    lo, hi = max(-r_p, span - r_q), min(r_p, span + r_q)
    x = min(max(span * (t - tp) / (tq - tp), lo + (hi - lo) / 4), hi - (hi - lo) / 4)
    y = frame.embed(t, x)
    if any(max(abs(a - b) for a, b in zip(y, rp)) <= guard for rp in space.removed):
        y = frame.embed(t, (lo + x) / 2)
    found = admissible(y)
    if found is None and not exact_first:
        found = admissible(exact)
    return found


class TestFlatSearchRows:
    """The flat search takes many pairs as the rows of two arrays; each row
    must give the bits of a one-row call and of the scalar reference."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(flat_level_cases())
    def test_each_row_equals_its_one_row_call(self, case):
        space, bundle, pairs, eps, c = case
        xs, zs = np.array([p for p, _ in pairs]), np.array([q for _, q in pairs])
        taus = np.array([space.tau(p, q) for p, q in pairs])
        ys, left, right, found = _flat_search(space, bundle, xs, zs, taus, eps, c, 1e-9)
        for k, (p, q) in enumerate(pairs):
            tau_pq = space.tau(p, q)
            one = _search_with_taus(space, bundle, p, q, eps, c, 1e-9, tau_pq)
            reference = _scalar_search(space, bundle, p, q, eps, c, 1e-9, tau_pq)
            assert found[k] == (one is not None) == (reference is not None)
            if one is not None:
                assert (_bits([*ys[k], left[k], right[k]]) == _bits([*one[0], *one[1:]])
                        == _bits([*reference[0], *reference[1:]]))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_many_slice_rows_follow_the_scalar_reference(self, dim):
        # With T = t^3 nearly every approximate query takes the level slice.
        # Pairs of tau about 1 are boosted up to rapidity 3; rounding
        # differences between the steps (libm's pow against x * x, say)
        # show on a few of them in a thousand.
        rng = make_rng(31 + dim)
        xs = rng.uniform(-2, 2, size=(1500, 1 + dim))
        rapidity = rng.uniform(0, 3, size=1500)
        direction = rng.normal(size=(1500, dim))
        direction /= np.linalg.norm(direction, axis=1)[:, None]
        zs = xs + np.column_stack((np.cosh(rapidity), np.sinh(rapidity)[:, None] * direction))
        space = MinkowskiSpace(dim)
        bundle = cubic_time_bundle(space)
        taus = space.tau_rows(xs, zs)
        for eps, c in ((0.02, None), (0.2, 0.3), (0.7, 0.45)):
            ys, left, right, found = _flat_search(space, bundle, xs, zs, taus, eps, c, 1e-9)
            for k, (p, q) in enumerate(zip(map(tuple, xs.tolist()), map(tuple, zs.tolist()))):
                reference = _scalar_search(space, bundle, p, q, eps, c, 1e-9, taus[k].item())
                assert found[k] == (reference is not None)
                if reference is not None:
                    assert (_bits([*ys[k], left[k], right[k]])
                            == _bits([*reference[0], *reference[1:]]))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_row_tau_and_plane_are_the_scalar_ones(self, dim):
        # numpy's hypot, or a square root of a sum of squares, differs from
        # math.dist in the last bit on some of these rows.
        rng = make_rng(29)
        xs, zs = rng.uniform(-3, 3, size=(2, 20000, 1 + dim))
        zs[:10000, 0] = xs[:10000, 0] + 3 + rng.uniform(0, 3, size=10000)
        space = PuncturedMinkowski(dim, removed=[(9.0,) * (1 + dim)])
        taus = space.tau_rows(xs, zs)
        pairs = [(tuple(x), tuple(z)) for x, z in zip(xs.tolist(), zs.tolist())]
        assert _bits(taus) == _bits(space.tau(x, z) for x, z in pairs)
        assert (taus > 0).sum() > 5000
        t, along = rng.uniform(-3, 3, size=(2, 20000))
        embedded = PlaneFrame.embed_rows(xs, zs, space.delta_rows(xs, zs)[1], t, along)
        assert all(_bits(row) == _bits(PlaneFrame(x, z).embed(tk, sk))
                   for row, (x, z), tk, sk in zip(embedded, pairs, t.tolist(), along.tolist()))

    def test_row_tau_refuses_a_removed_point(self):
        space = PuncturedMinkowski(1, removed=[(1.0, 0.0)])
        with pytest.raises(ValueError, match="removed"):
            space.tau_rows(np.array([[0.0, 0.0], [0.0, 0.0]]),
                           np.array([[2.0, 0.0], [1.0, 0.0]]))
