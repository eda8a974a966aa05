"""Backends: Minkowski formulas, causal-set structure, sprinkles, persistence."""

import json
import math
import os
from fractions import Fraction
from itertools import permutations

import pytest

from causalgeo import (CausalSetSpace, MinkowskiSpace,
                       load_causet_csv, load_causet_json, save_causet_csv,
                       save_causet_json, sprinkle_causet)
from causalgeo.core import atomic_write
from causalgeo.errors import CycleDetected, EmptySprinkle, NotComplete


class TestMinkowskiTau:
    def test_pure_time_translation(self, mink):
        assert mink.tau((0.0, 0.0), (2.0, 0.0)) == 2.0

    def test_boosted_pair_matches_chain_supremum(self, mink):
        # Independent oracle: tau is additive along the straight chain, so a
        # refined polygonal sum must reproduce the closed form; bent chains
        # can only fall short.
        p, q = (0.0, 0.0), (2.0, 1.0)
        direct = mink.tau(p, q)
        for parts in (3, 7, 20):
            joints = [mink.interpolate(p, q, i / parts) for i in range(parts + 1)]
            chain = sum(mink.tau(a, b) for a, b in zip(joints, joints[1:]))
            assert chain == pytest.approx(direct, abs=1e-12)
        bent = [p, (1.0, 0.8), q]
        assert sum(mink.tau(a, b) for a, b in zip(bent, bent[1:])) < direct
        assert direct == pytest.approx(math.sqrt(3.0), abs=1e-12)

    def test_spacelike_pair_is_zero(self, mink):
        assert mink.tau((0.0, 0.0), (1.0, 2.0)) == 0.0

    def test_null_pair_relations(self, mink):
        p, q = (0.0, 0.0), (1.0, 1.0)
        assert mink.causal_le(p, q)
        assert not mink.chronological(p, q)
        assert mink.tau(p, q) == 0.0

    def test_higher_dimension(self, mink3):
        assert mink3.tau((0.0, 0.0, 0.0), (2.0, 1.0, 0.0)) == pytest.approx(math.sqrt(3.0))


class TestCausetTau:
    def test_diamond_two_edge_chain(self, diamond):
        assert diamond.tau("p", "q") == 2

    def test_chain_of_five(self):
        ids = list("abcdef")
        space = CausalSetSpace(
            [(v, i) for i, v in enumerate(ids)],
            [(a, b, 1) for a, b in zip(ids, ids[1:])])
        assert space.tau("a", "f") == 5

    def test_unbalanced_diamond_enumerates_paths(self):
        space = CausalSetSpace(
            [("p", 0), ("a", 1), ("b", 1), ("q", 2)],
            [("p", "a", 1), ("a", "q", 1), ("p", "b", 0.4), ("b", "q", 0.4)])
        # Oracle: enumerate both directed paths by hand.
        paths = [Fraction(1) + Fraction(1), Fraction(0.4) + Fraction(0.4)]
        assert space.tau("p", "q") == max(paths)

    def test_reverse_triangle_exhaustive(self, diamond):
        pts = diamond.points()
        for x, y, z in permutations(pts, 3):
            if diamond.causal_le(x, y) and diamond.causal_le(y, z):
                assert diamond.tau(x, z) >= diamond.tau(x, y) + diamond.tau(y, z)

    def test_unreachable_is_zero(self, diamond):
        assert diamond.tau("a", "b") == 0
        assert diamond.tau("q", "p") == 0


class TestCausetValidation:
    def test_cycle_detected(self):
        with pytest.raises(CycleDetected):
            CausalSetSpace([("a", 0), ("b", 1)], [("a", "b", 1), ("b", "a", 1)])

    def test_self_loop_detected(self):
        with pytest.raises(CycleDetected):
            CausalSetSpace([("a", 0)], [("a", "a", 1)])

    def test_time_must_increase_along_edges(self):
        with pytest.raises(ValueError, match="strictly increase"):
            CausalSetSpace([("a", 1), ("b", 0)], [("a", "b", 1)])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            CausalSetSpace([("a", 0), ("b", 1)], [("a", "b", -1)])

    def test_unknown_vertex_rejected(self):
        with pytest.raises(ValueError, match="unknown vertex"):
            CausalSetSpace([("a", 0)], [("a", "z", 1)])

    def test_edges_are_kept_as_given(self):
        edges = [("p", "a", 1), ("a", "q", 1), ("p", "q", 2)]
        space = CausalSetSpace([("p", 0), ("a", 1), ("q", 2)], edges)
        assert space.edges == tuple(sorted((s, d, Fraction(w)) for s, d, w in edges))
        assert space.tau("p", "q") == 2

    def test_heavier_direct_edge_sets_tau(self):
        space = CausalSetSpace([("a", 0), ("m", 1), ("b", 2)],
                               [("a", "m", 1), ("m", "b", 1), ("a", "b", 5)])
        assert len(space.edges) == 3
        assert space.tau("a", "b") == 5

    def test_positive_direct_edge_over_null_chain_is_chronological(self):
        space = CausalSetSpace([("a", 0), ("m", 1), ("b", 2)],
                               [("a", "m", 0), ("m", "b", 0), ("a", "b", 1)])
        assert space.chronological("a", "b")
        assert not space.chronological("a", "m")

    def test_reachability_matches_edge_closure(self, diamond):
        closure = {("p", "a"), ("p", "b"), ("p", "q"), ("a", "q"), ("b", "q")}
        for x in diamond.points():
            for y in diamond.points():
                expected = x == y or (x, y) in closure
                assert diamond.causal_le(x, y) == expected

    def test_limit_point_stabilization(self, diamond):
        assert diamond.limit_point(["p", "a", "a"]) == "a"
        with pytest.raises(NotComplete):
            diamond.limit_point(["p", "a", "q"])


def reference_links(ids, pts):
    """Every causal pair as an edge, then the closure-based transitive reduction
    that the causal-set constructor applied at load before sprinkles stored
    their links."""
    mink = MinkowskiSpace(1)
    n = len(pts)
    out = [[j for j in range(n) if j != i and mink.causal_le(pts[i], pts[j])]
           for i in range(n)]
    # Sorted by (t, x), every causal pair points forward, so reversed index
    # order is a topological order.
    assert all(j > i for i in range(n) for j in out[i])
    reach = [0] * n
    for i in reversed(range(n)):
        reach[i] = 1 << i
        for j in out[i]:
            reach[i] |= reach[j]
    edges = []
    for i in range(n):
        # (i, j) is redundant when another out-neighbour m of i reaches j.
        beyond = 0
        for m in out[i]:
            beyond |= reach[m] ^ (1 << m)
        edges.extend((ids[i], ids[j], Fraction(mink.tau(pts[i], pts[j])))
                     for j in out[i] if not beyond >> j & 1)
    return tuple(sorted(edges))


class TestSprinkle:
    def test_fixed_seed_is_byte_identical(self, tmp_path):
        outputs = []
        for _ in range(2):
            space = sprinkle_causet(((0.0, 0.0), (1.0, 0.0)), density=100, seed=42)
            path = tmp_path / "causet.json"
            save_causet_json(space, path)
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_low_density_leaves_single_corner_edge(self):
        space = sprinkle_causet(((0.0, 0.0), (1.0, 0.0)), density=1e-6, seed=1)
        assert len(space.vertices) == 2
        assert len(space.edges) == 1
        (src, dst, w) = space.edges[0]
        assert w == Fraction(1.0)

    @pytest.mark.parametrize("density", [50, 100, 200, 400])
    def test_links_match_reduced_causal_relation(self, density):
        # The link scan assumes the float causal predicate is transitive on
        # the sprinkled points; the reference assumes nothing of the kind.
        mink = MinkowskiSpace(1)
        for seed in range(20):
            space = sprinkle_causet(((0.0, 0.0), (1.0, 0.0)), density, seed)
            ids = space.vertices
            pts = [space.coordinates[v] for v in ids]
            assert space.edges == reference_links(ids, pts)
            assert all(mink.tau(space.coordinates[s], space.coordinates[d]) == w
                       for s, d, w in space.edges)

    def test_empty_sprinkle_without_corners(self):
        with pytest.raises(EmptySprinkle):
            sprinkle_causet(((0.0, 0.0), (1.0, 0.0)), density=1e-6, seed=1,
                            include_corners=False)

    def test_corner_validation(self):
        with pytest.raises(ValueError, match="chronologically"):
            sprinkle_causet(((0.0, 0.0), (0.0, 1.0)), density=10, seed=0)
        with pytest.raises(ValueError, match="density"):
            sprinkle_causet(((0.0, 0.0), (1.0, 0.0)), density=0, seed=0)

    def test_longest_chain_ratio_trend(self):
        # The longest weighted chain between the corners is bounded by the
        # Minkowski separation and tightens as density grows.
        mink = MinkowskiSpace(1)
        ratios = []
        for density in (50, 200, 800):
            acc = 0.0
            for seed in (1, 2, 3):
                space = sprinkle_causet(((0.0, 0.0), (1.0, 0.0)), density, seed)
                first, last = space.vertices[0], space.vertices[-1]
                by_coord = space.coordinates
                assert by_coord[first] == (0.0, 0.0)
                assert by_coord[last] == (1.0, 0.0)
                acc += float(space.tau(first, last)) / mink.tau((0.0, 0.0), (1.0, 0.0))
            ratios.append(acc / 3)
        assert all(r <= 1.0 + 1e-12 for r in ratios)
        assert ratios[0] < ratios[2]

    def test_compatibility_measurement_runs_on_sprinkles(self):
        # Whether sprinkles admit a uniform strip constant is an experiment
        # output; the certifier reports per-pair best constants either way.
        from causalgeo import causet_time_bundle, certify_compatibility
        space = sprinkle_causet(((0.0, 0.0), (1.0, 0.0)), density=80, seed=3)
        bundle = causet_time_bundle(space)
        cert = certify_compatibility(space, bundle, c=0.05, epsilon_hat=0.2,
                                     sample_budget=40)
        measured = cert.data["best_c_values"]
        assert cert.data["pairs_checked"] == len(measured)
        assert all(0 <= b <= Fraction(1, 2) for b in measured)

    def test_sufficient_causal_connectedness_flag(self, diamond):
        assert diamond.sufficiently_causally_connected
        split = CausalSetSpace([("a", 0), ("b", 1), ("c", 0), ("d", 1)],
                               [("a", "b", 1), ("c", "d", 1)])
        assert not split.sufficiently_causally_connected

    def test_sprinkle_edges_satisfy_reverse_triangle(self):
        space = sprinkle_causet(((0.0, 0.0), (1.0, 0.0)), density=60, seed=7)
        pts = space.vertices
        for x in pts:
            for y in pts:
                for z in pts:
                    if space.causal_le(x, y) and space.causal_le(y, z):
                        assert space.tau(x, z) >= space.tau(x, y) + space.tau(y, z)


class _FailsMidway:
    """A text file whose write stores half the text, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[:len(text) // 2])
        self.fh.flush()
        raise OSError("disk full")


class TestPersistence:
    def test_json_roundtrip(self, tmp_path, skewed_diamond):
        path = tmp_path / "causet.json"
        save_causet_json(skewed_diamond, path)
        loaded = load_causet_json(path)
        assert loaded.vertices == skewed_diamond.vertices
        assert loaded.edges == skewed_diamond.edges
        for v in loaded.vertices:
            assert loaded.time_of(v) == skewed_diamond.time_of(v)
        payload = json.loads(path.read_text())
        assert set(payload) == {"vertices", "edges"}

    def test_csv_roundtrip(self, tmp_path, skewed_diamond):
        vp, ep = tmp_path / "vertices.csv", tmp_path / "edges.csv"
        save_causet_csv(skewed_diamond, vp, ep)
        assert vp.read_text().splitlines()[0] == "id,T"
        assert ep.read_text().splitlines()[0] == "src,dst,tau"
        loaded = load_causet_csv(vp, ep)
        assert loaded.edges == skewed_diamond.edges
        for v in loaded.vertices:
            assert loaded.time_of(v) == skewed_diamond.time_of(v)

    @staticmethod
    def thirds():
        return CausalSetSpace([("a", 0), ("b", Fraction(1, 3)), ("c", 1)],
                              [("a", "b", Fraction(1, 3)), ("b", "c", Fraction(2, 3))])

    def test_json_keeps_thirds_exact(self, tmp_path):
        space = self.thirds()
        path = tmp_path / "causet.json"
        save_causet_json(space, path)
        loaded = load_causet_json(path)
        assert loaded.tau("a", "c") == 1
        assert loaded.edges == space.edges
        assert loaded.time_of("b") == Fraction(1, 3)
        payload = json.loads(path.read_text())
        # Values a float holds exactly stay numbers; the others become "p/q".
        assert [v["T"] for v in payload["vertices"]] == [0.0, "1/3", 1.0]
        assert [e["tau"] for e in payload["edges"]] == ["1/3", "2/3"]

    def test_csv_keeps_thirds_exact(self, tmp_path):
        space = self.thirds()
        vp, ep = tmp_path / "vertices.csv", tmp_path / "edges.csv"
        save_causet_csv(space, vp, ep)
        loaded = load_causet_csv(vp, ep)
        assert loaded.tau("a", "c") == 1
        assert loaded.edges == space.edges
        assert loaded.time_of("b") == Fraction(1, 3)
        assert ep.read_text().splitlines()[1:] == ["a,b,1/3", "b,c,2/3"]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch, fmt):
        paths = ([tmp_path / "causet.json"] if fmt == "json"
                 else [tmp_path / "vertices.csv", tmp_path / "edges.csv"])
        save = save_causet_json if fmt == "json" else save_causet_csv
        save(self.thirds(), *paths)
        before = [p.read_bytes() for p in paths]
        real_fdopen = os.fdopen
        monkeypatch.setattr(os, "fdopen",
                            lambda *args, **kw: _FailsMidway(real_fdopen(*args, **kw)))
        with pytest.raises(OSError, match="disk full"):
            save(sprinkle_causet(((0.0, 0.0), (1.0, 0.0)), density=40, seed=9), *paths)
        assert [p.read_bytes() for p in paths] == before
        assert sorted(os.listdir(tmp_path)) == sorted(p.name for p in paths)

    def test_failed_chunked_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "curve.json"
        atomic_write(path, iter(["{\n", "}\n"]))
        assert path.read_text() == "{\n}\n"

        def chunks():
            yield "[\n"
            raise OSError("chunk source failed")

        with pytest.raises(OSError, match="chunk source failed"):
            atomic_write(path, chunks())
        assert path.read_text() == "{\n}\n"
        assert os.listdir(tmp_path) == ["curve.json"]

    def test_decimal_cells_load_as_floats(self, tmp_path):
        # A file written before "p/q" cells existed keeps its meaning.
        vp, ep = tmp_path / "vertices.csv", tmp_path / "edges.csv"
        vp.write_text("id,T\na,0.0\nb,0.1\n")
        ep.write_text("src,dst,tau\na,b,0.1\n")
        loaded = load_causet_csv(vp, ep)
        assert loaded.time_of("b") == Fraction(0.1)
        assert loaded.tau("a", "b") == Fraction(0.1)

    def test_sprinkle_saves_numbers_only(self, tmp_path):
        space = sprinkle_causet(((0.0, 0.0), (1.0, 0.0)), 40, seed=9)
        path = tmp_path / "causet.json"
        save_causet_json(space, path)
        payload = json.loads(path.read_text())
        assert all(isinstance(v["T"], float) for v in payload["vertices"])
        assert all(isinstance(e["tau"], float) for e in payload["edges"])

    def test_csv_header_is_strict(self, tmp_path):
        vp, ep = tmp_path / "vertices.csv", tmp_path / "edges.csv"
        vp.write_text("id,time\n")
        ep.write_text("src,dst,tau\n")
        with pytest.raises(ValueError, match="id,T"):
            load_causet_csv(vp, ep)


class TestPunctured:
    def test_universe_membership(self, punctured):
        assert not punctured.contains((1.0, 0.0))
        assert punctured.contains((1.0, 0.1))

    def test_removed_arguments_rejected(self, punctured):
        with pytest.raises(ValueError, match="removed"):
            punctured.tau((1.0, 0.0), (2.0, 0.0))

    def test_relations_restrict(self, punctured):
        assert punctured.tau((0.0, 0.0), (2.0, 0.0)) == 2.0

    def test_limit_escaping_universe(self, punctured):
        seq = [(1.0, 2.0 ** -n) for n in range(6)] + [(1.0, 0.0)]
        with pytest.raises(NotComplete):
            punctured.limit_point(seq)

    def test_sampler_avoids_removed_points(self, punctured):
        from causalgeo.core import make_rng
        pts = punctured.sample_points(make_rng(0), 64)
        assert all(punctured.contains(p) for p in pts)
