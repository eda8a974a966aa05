"""Core contracts: relations, certificates, curves, replayability."""

import math
from fractions import Fraction

import pytest

from causalgeo import (PiecewiseCausalCurve, TimeFunctionBundle,
                       check_anti_lipschitz, check_chronology,
                       check_reverse_triangle, replay)
from causalgeo.core import make_rng
from causalgeo.errors import SegmentNotCausal, WitnessMissing

from conftest import TauOverride


class TestChronology:
    def test_minkowski_passes(self, mink):
        cert = check_chronology(mink, sample_budget=128, seed=3)
        assert cert.passed
        assert cert.seed == 3

    def test_diamond_passes_exhaustively(self, diamond):
        cert = check_chronology(diamond)
        assert cert.passed
        assert cert.samples_checked == 4

    def test_injected_self_loop_fails_and_replays(self, diamond):
        corrupted = TauOverride(diamond, {("a", "a"): Fraction(1)})
        cert = check_chronology(corrupted)
        assert not cert.passed
        assert cert.witness[0] == "a"
        assert replay(cert, corrupted)
        assert not replay(cert, diamond)

    def test_replay_requires_failure(self, diamond):
        cert = check_chronology(diamond)
        with pytest.raises(ValueError):
            replay(cert, diamond)


class TestReverseTriangle:
    def test_collinear_chain_values(self, mink):
        x, y, z = (0.0, 0.0), (1.0, 0.0), (2.0, 0.0)
        assert mink.tau(x, z) == pytest.approx(mink.tau(x, y) + mink.tau(y, z))

    def test_bent_chain_is_strict(self, mink):
        # tau through the off-axis point loses sqrt(0.75) per leg.
        x, y, z = (0.0, 0.0), (1.0, 0.5), (2.0, 0.0)
        leg = math.sqrt(0.75)
        assert mink.tau(x, y) == pytest.approx(leg)
        assert mink.tau(y, z) == pytest.approx(leg)
        assert mink.tau(x, z) == 2.0
        assert mink.tau(x, z) > 2 * leg

    def test_minkowski_sampled(self, mink):
        cert = check_reverse_triangle(mink, sample_budget=200, seed=7)
        assert cert.passed

    def test_causet_exhaustive(self, diamond):
        cert = check_reverse_triangle(diamond)
        assert cert.passed

    def test_injected_violation_fails_and_replays(self, diamond):
        corrupted = TauOverride(diamond, {("p", "q"): Fraction(1, 2)})
        cert = check_reverse_triangle(corrupted)
        assert not cert.passed
        assert replay(cert, corrupted)


class TestAntiLipschitz:
    def test_minkowski_passes(self, mink, mink_bundle):
        cert = check_anti_lipschitz(mink, mink_bundle, sample_budget=200, seed=5)
        assert cert.passed

    def test_causet_graph_metric_telescopes(self, diamond, diamond_bundle):
        cert = check_anti_lipschitz(diamond, diamond_bundle)
        assert cert.passed

    def test_cubic_flattening_fails(self, cubic_mink, cubic_bundle):
        cert = check_anti_lipschitz(cubic_mink, cubic_bundle, sample_budget=300, seed=11)
        assert not cert.passed
        x, y, _ = cert.witness
        # The failing pairs live where the cubic flattens.
        assert abs(x[0]) <= 0.5 and abs(y[0]) <= 0.5
        assert replay(cert, cubic_mink, cubic_bundle)

    def test_straddling_pair_violates_directly(self, cubic_mink, cubic_bundle):
        delta = 1e-2
        x, y = (-delta, 0.0), (delta, 0.0)
        w = cubic_bundle.common_witness(x, y)
        assert w.metric(x, y) > cubic_bundle.time(y) - cubic_bundle.time(x)

    def test_witness_missing(self, mink):
        bare = TimeFunctionBundle(lambda p: p[0], witnesses=())
        with pytest.raises(WitnessMissing):
            check_anti_lipschitz(mink, bare, sample_budget=4)


class TestRelationInvariants:
    @pytest.mark.parametrize("seed", range(5))
    def test_chronological_implies_causal(self, mink, seed):
        rng = make_rng(seed)
        for x, y in mink.sample_chronological_pairs(rng, 50):
            assert mink.causal_le(x, y)
            assert mink.tau(x, y) > 0

    def test_tau_positive_iff_chronological(self, mink, diamond):
        rng = make_rng(0)
        for x, y in mink.sample_causal_pairs(rng, 50):
            assert (mink.tau(x, y) > 0) == mink.chronological(x, y)
        for x in diamond.points():
            for y in diamond.points():
                assert (diamond.tau(x, y) > 0) == diamond.chronological(x, y)

    def test_tau_antisymmetry(self, mink, diamond):
        rng = make_rng(1)
        for x, y in mink.sample_chronological_pairs(rng, 50):
            assert mink.tau(y, x) == 0
        for x in diamond.points():
            for y in diamond.points():
                if diamond.tau(x, y) > 0:
                    assert diamond.tau(y, x) == 0


class TestPiecewiseCausalCurve:
    def test_zigzag_null_length_terms(self, mink, mink_bundle):
        from causalgeo import null_length
        curve = PiecewiseCausalCurve(mink, ((0.0, 0.0), (0.5, 0.5), (0.0, 1.0)),
                                     ("future", "past"))
        value = null_length(mink_bundle, curve)
        assert value.decomposition == (0.5, 0.5)
        assert value.value == 1.0

    def test_segment_not_causal(self, mink):
        curve = PiecewiseCausalCurve(mink, ((0.0, 0.0), (0.0, 1.0)), ("future",))
        with pytest.raises(SegmentNotCausal):
            curve.validate()

    def test_orientation_and_breakpoint_validation(self, mink):
        with pytest.raises(ValueError):
            PiecewiseCausalCurve(mink, ((0.0, 0.0), (1.0, 0.0)), ("sideways",))

    def test_tau_length_needs_future_curve(self, mink):
        curve = PiecewiseCausalCurve(mink, ((0.0, 0.0), (0.5, 0.5), (0.0, 1.0)),
                                     ("future", "past"))
        with pytest.raises(ValueError):
            curve.tau_length()

    def test_future_chain_tau_length(self, diamond):
        curve = PiecewiseCausalCurve.future_chain(diamond, ("p", "a", "q"))
        assert curve.tau_length() == 2

    def test_constant_curve(self, mink, mink_bundle):
        from causalgeo import null_length
        curve = PiecewiseCausalCurve(mink, ((0.0, 0.0),), ())
        assert null_length(mink_bundle, curve).value == 0


class TestCertificatePlumbing:
    def test_as_dict_handles_fractions(self, diamond):
        cert = check_chronology(diamond)
        payload = cert.as_dict()
        assert payload["verdict"] == "pass"
        assert payload["samples_checked"] == 4

    def test_deterministic_reruns(self, mink):
        a = check_reverse_triangle(mink, sample_budget=64, seed=9)
        b = check_reverse_triangle(mink, sample_budget=64, seed=9)
        assert a == b
