"""Symmetry oracles on flat backends, for both flat time functions.

Negating one spatial coordinate is an isometry that both time functions
ignore, and every formula on flat space reads spatial offsets only through
differences and norms, so tau, d_T and the midpoint search must commute with
it bit for bit.  Time reversal t -> -t swaps the causal order; both f(t) = t
and f(t) = t^3 are odd, so tau(p, q) and d_T(p, q) must equal their values
on the reversed pair (-q, -p), up to rounding.
"""

import pytest

from causalgeo import (MidpointQuery, MinkowskiSpace, canonical_time_bundle,
                       cubic_time_bundle, find_midpoint, null_distance)
from causalgeo.core import make_rng

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


@pytest.mark.parametrize("dim, make", CASES, ids=IDS)
def test_time_reversal_keeps_tau_and_null_distance(dim, make):
    space, bundle, pairs, chronological = _setup(dim, make)
    for p, q in pairs + chronological:
        rp, rq = _reverse(q), _reverse(p)
        assert space.tau(rp, rq) == pytest.approx(space.tau(p, q), abs=1e-12)
        assert (null_distance(space, bundle, rp, rq).value
                == pytest.approx(null_distance(space, bundle, p, q).value, abs=1e-12))
