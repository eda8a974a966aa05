import math
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from causalgeo import (CausalSetSpace, MinkowskiSpace, PuncturedMinkowski,
                       canonical_time_bundle, causet_time_bundle,
                       cubic_time_bundle)


@pytest.fixture
def mink():
    return MinkowskiSpace(1, window=((-2.0, 2.0), 2.0))


@pytest.fixture
def mink_bundle(mink):
    return canonical_time_bundle(mink)


@pytest.fixture
def mink3():
    return MinkowskiSpace(2, window=((-2.0, 2.0), 2.0))


@pytest.fixture
def diamond():
    return CausalSetSpace(
        [("p", 0), ("a", 1), ("b", 1), ("q", 2)],
        [("p", "a", 1), ("p", "b", 1), ("a", "q", 1), ("b", "q", 1)])


@pytest.fixture
def diamond_bundle(diamond):
    return causet_time_bundle(diamond)


@pytest.fixture
def skewed_diamond():
    return CausalSetSpace(
        [("p", 0.0), ("a", 0.2), ("b", 1.8), ("q", 2.0)],
        [("p", "a", 1), ("p", "b", 1), ("a", "q", 1), ("b", "q", 1)])


@pytest.fixture
def skewed_bundle(skewed_diamond):
    return causet_time_bundle(skewed_diamond)


@pytest.fixture
def punctured():
    return PuncturedMinkowski(1, removed=[(1.0, 0.0)], window=((-1.0, 3.0), 3.0))


@pytest.fixture
def punctured_bundle(punctured):
    return canonical_time_bundle(punctured)


@pytest.fixture
def cubic_mink():
    return MinkowskiSpace(1, window=((-0.4, 0.4), 0.4))


@pytest.fixture
def cubic_bundle(cubic_mink):
    return cubic_time_bundle(cubic_mink, half_width=0.5)


def count_tau_evaluations(monkeypatch):
    """Count flat tau evaluations, one per pair of ``MinkowskiSpace.tau`` and
    one per row of ``MinkowskiSpace.tau_rows``; returns the growing list."""
    calls = []
    plain, rows = MinkowskiSpace.tau, MinkowskiSpace.tau_rows

    def counted(self, x, y):
        calls.append(None)
        return plain(self, x, y)

    def counted_rows(self, xs, ys):
        calls.extend([None] * len(xs))
        return rows(self, xs, ys)

    monkeypatch.setattr(MinkowskiSpace, "tau", counted)
    monkeypatch.setattr(MinkowskiSpace, "tau_rows", counted_rows)
    return calls


def plane_point(p, q, t, s):
    """The point at lab time t, a distance s from p along the spatial
    direction p -> q (the first axis when they share their position), in
    Python floats: the scalar reference for ``spaces.embed_rows``."""
    dx = [b - a for a, b in zip(p[1:], q[1:])]
    span = math.hypot(*dx)
    unit = [d / span for d in dx] if span else [1.0] + [0.0] * (len(dx) - 1)
    return (t, *(a + s * u for a, u in zip(p[1:], unit)))


class TauOverride:
    """Delegating wrapper that corrupts tau on chosen pairs (test defects)."""

    def __init__(self, base, overrides):
        self._base = base
        self._overrides = dict(overrides)

    def __getattr__(self, name):
        return getattr(self._base, name)

    def tau(self, x, y):
        key = (x, y)
        if key in self._overrides:
            return self._overrides[key]
        return self._base.tau(x, y)


STEPS = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 7), Fraction(1))
WEIGHTS = (Fraction(0), Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(5, 7),
           Fraction(1), Fraction(2), 0.125)


@st.composite
def weighted_dags(draw, max_vertices=8):
    """Random weighted DAGs mixing zero-weight edges with non-dyadic weights
    and times, their vertex ids shuffled against the time order."""
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
