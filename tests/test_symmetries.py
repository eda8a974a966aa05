"""Symmetry oracles on flat backends, for both flat time functions, and on
causal sets.

Negating one spatial coordinate and permuting the spatial coordinates are
isometries that both time functions ignore, and every formula on flat space
reads spatial offsets only through differences and norms (``math.hypot``,
whose bits do not depend on the order of its arguments), so tau, d_T, the
midpoint search and the dyadic build must commute with them bit for bit.
Dilation by 2 is exact in floats, and with T = t every formula is
homogeneous of degree one, so d_T and the exact midpoint double bit for
bit.  Time reversal t -> -t swaps the causal order; both f(t) = t
and f(t) = t^3 are odd, so tau(p, q) and d_T(p, q) must equal their values
on the reversed pair (-q, -p), up to rounding.  Boosts and spatial rotations
are Lorentz maps that move the coordinates themselves, so they keep tau
only up to rounding and the causal relations on pairs clear of the cone.

On a causal set both symmetries are exact.  Reversing every edge and
negating every time gives the reversed set, whose tau(y, x) is tau(x, y)
(its forward passes are the backward passes of the original) and whose
|dT| graph is the same; renaming the vertices changes neither.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from causalgeo import (CausalSetSpace, MidpointQuery, MinkowskiSpace, build_dyadic_curve,
                       canonical_time_bundle, causet_time_bundle, cubic_time_bundle,
                       find_midpoint, null_distance, sprinkle_causet)
from causalgeo.core import make_rng
from causalgeo.errors import NotConnected
from conftest import weighted_dags

CASES = [(dim, make) for dim in (1, 2) for make in (canonical_time_bundle, cubic_time_bundle)]
IDS = [f"1+{dim}-{make.__name__}" for dim, make in CASES]


def _setup(dim, make):
    space = MinkowskiSpace(dim)
    rng = make_rng(17)
    points = space.sample_points(rng, 80)
    pairs = list(zip(points[0::2], points[1::2]))
    return space, make(space), pairs, space.sample_chronological_pairs(rng, 40)


def _mirror(x, axis):
    return tuple(-c if i == axis else c for i, c in enumerate(x))


def _reverse(x):
    return (-x[0], *x[1:])


@pytest.mark.parametrize("dim, make", CASES, ids=IDS)
def test_spatial_reflection_is_exact(dim, make):
    space, bundle, pairs, chronological = _setup(dim, make)
    for axis in range(1, dim + 1):
        for p, q in pairs + chronological:
            mp, mq = _mirror(p, axis), _mirror(q, axis)
            assert space.tau(mp, mq) == space.tau(p, q)
            assert (null_distance(space, bundle, mp, mq).value
                    == null_distance(space, bundle, p, q).value)
        found = 0
        for p, q in chronological:
            mp, mq = _mirror(p, axis), _mirror(q, axis)
            for query in (dict(c=0.1), dict(c=0.1, epsilon_hat=0.2)):
                y = find_midpoint(space, bundle, MidpointQuery(p, q, **query))
                my = find_midpoint(space, bundle, MidpointQuery(mp, mq, **query))
                assert my == (None if y is None else _mirror(y, axis))
                found += y is not None
        assert found > len(chronological)


def _permute(x, order):
    return (x[0], *(x[1 + i] for i in order))


PERMUTATION_CASES = [(dim, make) for dim in (2, 3)
                     for make in (canonical_time_bundle, cubic_time_bundle)]


@pytest.mark.parametrize("dim, make", PERMUTATION_CASES,
                         ids=[f"1+{dim}-{make.__name__}" for dim, make in PERMUTATION_CASES])
def test_spatial_permutation_is_exact(dim, make):
    space, bundle, pairs, chronological = _setup(dim, make)
    orders = list(itertools.permutations(range(dim)))[1:]
    for order in orders:
        for p, q in pairs + chronological:
            pp, pq = _permute(p, order), _permute(q, order)
            assert space.tau(pp, pq) == space.tau(p, q)
            assert (null_distance(space, bundle, pp, pq).value
                    == null_distance(space, bundle, p, q).value)
        found = 0
        for p, q in chronological:
            pp, pq = _permute(p, order), _permute(q, order)
            for query in (dict(c=0.1), dict(c=0.1, epsilon_hat=0.2)):
                y = find_midpoint(space, bundle, MidpointQuery(p, q, **query))
                py = find_midpoint(space, bundle, MidpointQuery(pp, pq, **query))
                assert repr(py) == repr(None if y is None else _permute(y, order))
                found += y is not None
        assert found > len(chronological)
    # At lab times 0.5 .. 1.7 the strip of t^3 for c = 0.2 holds every
    # exact midpoint, as it does for coordinate time.
    p, q = (0.5, 0.1, -0.2, 0.3)[:1 + dim], (1.7, 0.4, 0.3, -0.1)[:1 + dim]
    curves = [build_dyadic_curve(space, bundle, p, q, 0.2, 8, mode, 0.2 * space.tau(p, q))
              for mode in ("exact", "approximate")]
    for order in orders:
        for curve in curves:
            permuted = build_dyadic_curve(space, bundle, _permute(p, order), _permute(q, order),
                                          0.2, 8, curve.mode, curve.epsilon)
            assert repr(permuted.points) == repr([_permute(x, order) for x in curve.points])


@pytest.mark.parametrize("dim, make", CASES, ids=IDS)
def test_time_reversal_keeps_tau_and_null_distance(dim, make):
    space, bundle, pairs, chronological = _setup(dim, make)
    for p, q in pairs + chronological:
        rp, rq = _reverse(q), _reverse(p)
        assert space.tau(rp, rq) == pytest.approx(space.tau(p, q), abs=1e-12)
        assert (null_distance(space, bundle, rp, rq).value
                == pytest.approx(null_distance(space, bundle, p, q).value, abs=1e-12))


def _dilate(x):
    return tuple(2 * c for c in x)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_dilation_doubles_coordinate_time_exactly(dim):
    # t^3 reads T through pow, which is not correctly rounded, so (2t)^3 can
    # differ from 8 t^3 in the last bit; it is left out.
    space = MinkowskiSpace(dim)
    bundle, rng = canonical_time_bundle(space), make_rng(23)
    points = space.sample_points(rng, 600)
    for p, q in zip(points[0::2], points[1::2]):
        assert (null_distance(space, bundle, _dilate(p), _dilate(q)).value
                == 2 * null_distance(space, bundle, p, q).value)
    for p, q in space.sample_chronological_pairs(rng, 100):
        y = find_midpoint(space, bundle, MidpointQuery(p, q, c=0.1))
        assert y is not None
        assert find_midpoint(space, bundle,
                             MidpointQuery(_dilate(p), _dilate(q), c=0.1)) == _dilate(y)


def _boost(v):
    """The boost along x1 with velocity v, |v| < 1."""
    gamma = 1.0 / math.sqrt(1.0 - v * v)

    def apply(x):
        return (gamma * (x[0] - v * x[1]), gamma * (x[1] - v * x[0]), *x[2:])
    return apply


def _rotation(angle):
    """The rotation by ``angle`` in the x1-x2 plane."""
    c, s = math.cos(angle), math.sin(angle)

    def apply(x):
        return (x[0], c * x[1] - s * x[2], s * x[1] + c * x[2], *x[3:])
    return apply


def _lorentz_cases(dim, rng, count):
    """``count`` (p, q, map) cases: half the pairs uniform, half chronological,
    each under a boost with |v| <= 0.9 or, for dim >= 2, a rotation."""
    cases = []
    for k in range(count):
        p = tuple(rng.uniform(-1.0, 1.0) for _ in range(dim + 1))
        if k % 2:
            dx = [rng.uniform(-1.0, 1.0) for _ in range(dim)]
            dt = math.hypot(*dx) + rng.uniform(0.0, 1.0)
            q = (p[0] + dt, *(a + b for a, b in zip(p[1:], dx)))
        else:
            q = tuple(rng.uniform(-1.0, 1.0) for _ in range(dim + 1))
        if dim >= 2 and rng.random() < 0.5:
            cases.append((p, q, _rotation(rng.uniform(0.0, 2 * math.pi))))
        else:
            cases.append((p, q, _boost(rng.uniform(-0.9, 0.9))))
    return cases


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_boosts_and_rotations_keep_tau_and_the_causal_relations(dim):
    space = MinkowskiSpace(dim)
    related = 0
    for p, q, lorentz in _lorentz_cases(dim, random.Random(3), 1000):
        mp, mq = lorentz(p), lorentz(q)
        scale = max(1.0, *map(abs, p + q + mp + mq))
        for x, y, mx, my in ((p, q, mp, mq), (q, p, mq, mp)):
            assert abs(space.tau(mx, my) - space.tau(x, y)) <= 1e-12 * scale
            if abs(y[0] - x[0] - math.dist(x[1:], y[1:])) > 1e-8:
                assert space.causal_le(mx, my) == space.causal_le(x, y)
                assert space.chronological(mx, my) == space.chronological(x, y)
                related += space.chronological(x, y)
    assert related >= 500


def _null_distance(space, x, y):
    try:
        return null_distance(space, causet_time_bundle(space), x, y).value
    except NotConnected:
        return None


def _reversed(space):
    return CausalSetSpace([(v, -space.time_of(v)) for v in space.vertices],
                          [(dst, src, w) for src, dst, w in space.edges])


def _renamed(space, name):
    return CausalSetSpace([(name[v], space.time_of(v)) for v in space.vertices],
                          [(name[src], name[dst], w) for src, dst, w in space.edges])


def _assert_causet_symmetries(space):
    rev = _reversed(space)
    # Reversed id order interleaves differently with the time order.
    name = {v: f"w{len(space.vertices) - i}" for i, v in enumerate(space.vertices)}
    renamed = _renamed(space, name)
    for x in space.vertices:
        for y in space.vertices:
            tau, d = space.tau(x, y), _null_distance(space, x, y)
            assert isinstance(tau, Fraction)
            assert rev.tau(y, x) == tau, (x, y)
            assert renamed.tau(name[x], name[y]) == tau, (x, y)
            assert _null_distance(rev, x, y) == d, (x, y)
            assert _null_distance(renamed, name[x], name[y]) == d, (x, y)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(weighted_dags())
def test_causet_reversal_and_renaming_keep_tau_and_null_distance(space):
    _assert_causet_symmetries(space)


def test_sprinkle_reversal_and_renaming_keep_tau_and_null_distance():
    _assert_causet_symmetries(sprinkle_causet(((0.0, 0.0), (1.0, 0.0)), 60, 7))
