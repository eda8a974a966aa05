"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report.  Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import os
import re
import time
from fractions import Fraction

from causalgeo import (CausalSetSpace, MidpointQuery, MinkowskiSpace,
                       PuncturedMinkowski, build_dyadic_curve,
                       canonical_time_bundle, causet_time_bundle,
                       certify_compatibility, check_chronology,
                       check_realizer, check_subsequent_bound, find_midpoint,
                       is_eps_tau_midpoint, lens_in_strip_epsilon,
                       null_distance, null_distance_oracle,
                       replay, sprinkle_causet, synthesize_geodesic)
from causalgeo.core import make_rng
from causalgeo.errors import MidpointUnavailable, NotConnected
from causalgeo.figures import lens_figure_svg
from causalgeo.midpoints import LensStrip

from conftest import TauOverride

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "lens_default.svg")


def report(number, name, ok):
    print(f"\nACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def test_criterion_1_minkowski_exact_pipeline():
    space = MinkowskiSpace(1, window=((-1.0, 3.0), 3.0))
    bundle = canonical_time_bundle(space)
    p, q = (0.0, 0.0), (2.0, 0.0)
    start = time.perf_counter()
    curve, certs = synthesize_geodesic(space, bundle, p, q, c=0.5, depth=10)
    elapsed = time.perf_counter() - start

    affine_ok = all(
        abs(point[0] - 2 * float(fr)) <= 1e-9 and abs(point[1]) <= 1e-9
        for fr, point in curve.values.items())
    realizer = certs["realizer"]
    realizer_ok = (realizer.passed
                   and realizer.data["max_deviation"] <= 2.0 ** -9 * 2 + 1e-9)
    holder = certs["holder"]
    holder_ok = (holder.passed and holder.alpha == 1.0
                 and abs(holder.constant - 8.0) <= 1e-12)
    ok = affine_ok and realizer_ok and holder_ok and elapsed < 5.0
    report(1, "minkowski exact pipeline", ok)


def _random_causet(seed):
    rng = make_rng(seed)
    n = int(rng.integers(4, 13))
    times = [0.0]
    for _ in range(n - 1):
        times.append(times[-1] + float(rng.uniform(0.05, 1.0)))
    vertices = [(f"v{i:02d}", times[i]) for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.uniform() < 0.35:
                edges.append((f"v{i:02d}", f"v{j:02d}", float(rng.uniform(0.0, 2.0))))
    return CausalSetSpace(vertices, edges)


def test_criterion_2_oracle_equivalence_on_random_causets():
    start = time.perf_counter()
    checked = 0
    for seed in range(50):
        space = _random_causet(seed)
        bundle = causet_time_bundle(space)
        ids = space.vertices
        for i, x in enumerate(ids):
            for y in ids[i + 1:]:
                try:
                    value = null_distance(space, bundle, x, y).value
                except NotConnected:
                    value = "inf"
                try:
                    exhaustive = null_distance_oracle(space, bundle, x, y)
                except NotConnected:
                    exhaustive = "inf"
                assert value == exhaustive, (seed, x, y, value, exhaustive)
                checked += 1
    elapsed = time.perf_counter() - start
    report(2, f"null-distance oracle equivalence ({checked} pairs)", elapsed < 60.0)


def test_criterion_3_causal_pair_identity_on_every_backend():
    # On a causal set the identity is checked against Dijkstra over every
    # piecewise causal walk, the long way round.
    backends = []
    mink = MinkowskiSpace(1, window=((-2.0, 2.0), 2.0))
    backends.append(("minkowski-1+1", mink, canonical_time_bundle(mink), 1e-7))
    mink3 = MinkowskiSpace(2, window=((-2.0, 2.0), 2.0))
    backends.append(("minkowski-1+2", mink3, canonical_time_bundle(mink3), 1e-7))
    punc = PuncturedMinkowski(1, removed=[(1.0, 0.0)], window=((-2.0, 2.0), 2.0))
    backends.append(("punctured", punc, canonical_time_bundle(punc), 1e-7))
    diamond = CausalSetSpace(
        [("p", 0), ("a", 1), ("b", 1), ("q", 2)],
        [("p", "a", 1), ("p", "b", 1), ("a", "q", 1), ("b", "q", 1)])
    backends.append(("diamond", diamond, causet_time_bundle(diamond), 0))
    sprinkle = sprinkle_causet(((0.0, 0.0), (1.0, 0.0)), density=100, seed=11)
    backends.append(("sprinkle", sprinkle, causet_time_bundle(sprinkle), 0))

    ok = True
    for name, space, bundle, tol in backends:
        pairs = space.sample_causal_pairs(make_rng(17), 1000)
        for x, y in pairs:
            if space.is_discrete:
                value = space.time_graph_distance(x, y)
            else:
                value = null_distance(space, bundle, x, y).value
            gap = bundle.time(y) - bundle.time(x)
            if tol == 0:
                ok = ok and value == gap
            else:
                ok = ok and abs(float(value) - float(gap)) <= tol
        assert ok, name
    report(3, "causal-pair identity d_T = T(q) - T(p)", ok)


def test_criterion_4_lens_in_strip_and_golden_figure():
    space = MinkowskiSpace(1, window=((-1.0, 5.0), 4.0))
    bundle = canonical_time_bundle(space)
    p, q, c = (0.0, 0.0), (4.0, 0.0), 0.4
    eps_star = lens_in_strip_epsilon(space, bundle, p, q, c)

    lens = LensStrip(space, bundle, p, q, eps_star, c, tol=0.0)
    rng = make_rng(99)
    kept = 0
    violations = 0
    while kept < 10_000:
        y = (rng.uniform(1.0, 3.0), rng.uniform(-1.5, 1.5))
        if lens.in_lens(y):
            kept += 1
            if not lens.in_strip(y):
                violations += 1

    svg = lens_figure_svg(LensStrip(space, bundle, p, q, eps_star, c), 200)
    golden = open(GOLDEN).read()
    numbers = re.compile(r"-?\d+\.\d+")
    got = [float(tok) for tok in numbers.findall(svg)]
    want = [float(tok) for tok in numbers.findall(golden)]
    svg_ok = (len(got) == len(want)
              and max(abs(a - b) for a, b in zip(got, want)) <= 1e-6
              and numbers.sub("#", svg) == numbers.sub("#", golden))
    report(4, f"lens-in-strip eps*={eps_star:.6f}, {violations} violations",
           eps_star > 0 and violations == 0 and svg_ok)


def test_criterion_5_approximate_mode_on_punctured():
    space = PuncturedMinkowski(1, removed=[(1.0, 0.0)], window=((-1.0, 3.0), 3.0))
    bundle = canonical_time_bundle(space)
    p, q = (0.0, 0.0), (2.0, 0.0)
    tau_pq = space.tau(p, q)
    epsilon = 0.1 * tau_pq

    exact_failed = False
    try:
        build_dyadic_curve(space, bundle, p, q, c=0.5, depth=8)
    except MidpointUnavailable:
        exact_failed = True

    curve = build_dyadic_curve(space, bundle, p, q, c=0.5, depth=8,
                               mode="approximate", epsilon=epsilon)
    realizer = check_realizer(curve, sample_budget=200, seed=5)
    length_ok = realizer.data["tau_length"] >= 0.9 * tau_pq - 1e-7

    levels_ok = True
    for level in range(1, curve.depth + 1):
        level_eps = epsilon / 4 ** level
        denom = 1 << level
        for k in range(1, denom, 2):
            x = curve.point_at(Fraction(k - 1, denom))
            z = curve.point_at(Fraction(k + 1, denom))
            y = curve.point_at(Fraction(k, denom))
            levels_ok = levels_ok and is_eps_tau_midpoint(space, x, z, y, level_eps)

    report(5, "approximate mode on punctured backend",
           exact_failed and realizer.passed and length_ok and levels_ok)


def test_criterion_6_compatibility_threshold_exact():
    space = CausalSetSpace(
        [("p", 0.0), ("a", 0.2), ("b", 1.8), ("q", 2.0)],
        [("p", "a", 1), ("p", "b", 1), ("a", "q", 1), ("b", "q", 1)])
    bundle = causet_time_bundle(space)
    passing = certify_compatibility(space, bundle, c=0.1, epsilon_hat=0.0,
                                    sample_budget=64)
    failing = certify_compatibility(space, bundle, c=0.11, epsilon_hat=0.0,
                                    sample_budget=64)
    best = passing.data["best_c_min"]
    ok = (passing.passed
          and best == Fraction(0.1)
          and not failing.passed
          and failing.witness is not None
          and failing.witness[:2] == ("p", "q"))
    report(6, f"compatibility best c = {float(best)}", ok)


def test_criterion_7_subsequent_bound_on_every_built_curve():
    curves = []
    mink = MinkowskiSpace(1, window=((-1.0, 3.0), 3.0))
    mb = canonical_time_bundle(mink)
    curves.append(build_dyadic_curve(mink, mb, (0.0, 0.0), (2.0, 0.0), 0.5, 10))
    curves.append(build_dyadic_curve(mink, mb, (0.0, 0.0), (2.0, 1.0), 0.5, 6))
    curves.append(build_dyadic_curve(mink, mb, (-0.5, 0.3), (1.5, -0.2), 0.3, 6))
    punc = PuncturedMinkowski(1, removed=[(1.0, 0.0)], window=((-1.0, 3.0), 3.0))
    pb = canonical_time_bundle(punc)
    curves.append(build_dyadic_curve(punc, pb, (0.0, 0.0), (2.0, 0.0), 0.5, 8,
                                     mode="approximate", epsilon=0.2))
    skew = CausalSetSpace(
        [("p", 0.0), ("a", 0.2), ("b", 1.8), ("q", 2.0)],
        [("p", "a", 1), ("p", "b", 1), ("a", "q", 1), ("b", "q", 1)])
    curves.append(build_dyadic_curve(skew, causet_time_bundle(skew), "p", "q", 0.1, 1))
    chain = CausalSetSpace(
        [(f"v{i}", i) for i in range(5)],
        [(f"v{i}", f"v{i+1}", 1) for i in range(4)])
    curves.append(build_dyadic_curve(chain, causet_time_bundle(chain), "v0", "v4",
                                     0.5, 2))
    ok = all(check_subsequent_bound(curve, tol=1e-9).passed for curve in curves)
    report(7, f"subsequent-dyadic bound on {len(curves)} curves", ok)


def test_criterion_8_property_suites_200_trials():
    mink = MinkowskiSpace(1, window=((-2.0, 2.0), 2.0))
    bundle = canonical_time_bundle(mink)
    diamond = CausalSetSpace(
        [("p", 0), ("a", 1), ("b", 1), ("q", 2)],
        [("p", "a", 1), ("p", "b", 1), ("a", "q", 1), ("b", "q", 1)])

    lens_monotone = 0
    rng = make_rng(800)
    for _ in range(200):
        p, q = mink.sample_chronological_pairs(rng, 1)[0]
        tau = mink.tau(p, q)
        e1, e2 = sorted(rng.uniform(0.01, 0.45, size=2) * tau)
        small = LensStrip(mink, bundle, p, q, e1, 0.4)
        large = LensStrip(mink, bundle, p, q, e2, 0.4)
        y = mink.interpolate(p, q, rng.uniform(0.3, 0.7))
        y = (y[0], y[1] + rng.uniform(-0.2, 0.2) * tau)
        if small.in_lens(y) and not large.in_lens(y):
            break
        lens_monotone += 1

    strip_antitone = 0
    rng = make_rng(801)
    for _ in range(200):
        p, q = mink.sample_chronological_pairs(rng, 1)[0]
        c1, c2 = sorted(rng.uniform(0.05, 0.5, size=2))
        loose = LensStrip(mink, bundle, p, q, 0.1, float(c1))
        tight = LensStrip(mink, bundle, p, q, 0.1, float(c2))
        y = mink.interpolate(p, q, float(rng.uniform(0.0, 1.0)))
        if tight.in_strip(y) and not loose.in_strip(y):
            break
        strip_antitone += 1

    exact_implies_approx = 0
    rng = make_rng(802)
    for _ in range(200):
        p, q = mink.sample_chronological_pairs(rng, 1)[0]
        y = find_midpoint(mink, bundle, MidpointQuery(p=p, q=q))
        eps = float(rng.uniform(1e-6, 0.5))
        if y is None or not is_eps_tau_midpoint(mink, p, q, y, eps):
            break
        exact_implies_approx += 1

    replayable = 0
    rng = make_rng(803)
    for _ in range(200):
        vertex = ("p", "a", "b", "q")[int(rng.integers(0, 4))]
        defect = Fraction(float(rng.uniform(0.5, 2.0)))
        corrupted = TauOverride(diamond, {(vertex, vertex): defect})
        cert = check_chronology(corrupted)
        if cert.passed or not replay(cert, corrupted):
            break
        replayable += 1

    deterministic = 0
    rng = make_rng(804)
    for _ in range(200):
        p, q = mink.sample_chronological_pairs(rng, 1)[0]
        one = build_dyadic_curve(mink, bundle, p, q, c=0.5, depth=3)
        two = build_dyadic_curve(mink, bundle, p, q, c=0.5, depth=3)
        if one.values != two.values:
            break
        deterministic += 1

    counts = (lens_monotone, strip_antitone, exact_implies_approx, replayable,
              deterministic)
    report(8, f"property suites (trials passed: {counts})",
           all(count == 200 for count in counts))
