"""CLI: config parsing, subcommands, exit codes, artifact reproducibility."""

import csv
import json
import os
import re
import subprocess
import sys

import pytest

from causalgeo.cli import RunConfig, main
from causalgeo.geodesic import MAX_DEPTH

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "lens_default.svg")


def run(*argv):
    return main(list(argv))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestConfigHandling:
    def test_unknown_key_is_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[geodesic]\nwobble = 3\n")
        assert run("geodesic", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2

    def test_unknown_section_is_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[mystery]\nx = 1\n")
        assert run("geodesic", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2

    def test_malformed_value_is_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[geodesic]\ndepth = soon\n")
        assert run("geodesic", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2

    def test_out_of_range_value_is_rejected(self, tmp_path):
        assert run("geodesic", "--c", "0.7", "--out", str(tmp_path / "o")) == 2

    def test_missing_config_file(self, tmp_path):
        assert run("geodesic", "--config", str(tmp_path / "none.cfg"),
                   "--out", str(tmp_path / "o")) == 2

    def test_config_file_with_overrides(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[run]\nseed = 7\n\n[geodesic]\ndepth = 4  ; inline note\n")
        out = tmp_path / "o"
        assert run("geodesic", "--config", str(cfg), "--depth", "3",
                   "--out", str(out)) == 0
        manifest = read_json(out / "manifest.json")
        assert manifest["seed"] == 7
        assert manifest["config"]["geodesic"]["depth"] == 3


class TestGeodesicCommand:
    def test_minkowski_exact_run(self, tmp_path):
        out = tmp_path / "o"
        assert run("geodesic", "--out", str(out), "--depth", "6", "--seed", "5") == 0
        for name in ("curve.json", "certificates.json", "summary.txt", "manifest.json"):
            assert (out / name).exists()
        curve = read_json(out / "curve.json")
        assert curve["depth"] == 6
        assert len(curve["values"]) == 65
        certs = read_json(out / "certificates.json")
        assert all(c["verdict"] == "pass" for c in certs)

    def test_punctured_exact_fails_with_reason(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[backend]\nkind = punctured\nremoved = 1,0\n")
        out = tmp_path / "o"
        assert run("geodesic", "--config", str(cfg), "--out", str(out),
                   "--depth", "4") == 1
        failure = read_json(out / "failure.json")
        assert failure["error"] == "MidpointUnavailable"
        assert failure["level"] == 1

    def test_punctured_approximate_succeeds(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[backend]\nkind = punctured\nremoved = 1,0\n")
        out = tmp_path / "o"
        assert run("geodesic", "--config", str(cfg), "--out", str(out),
                   "--depth", "4", "--mode", "approximate",
                   "--epsilon-hat", "0.1") == 0

    def test_spacelike_endpoints_are_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[geodesic]\np = 0,0\nq = 0,1\n")
        out = tmp_path / "o"
        assert run("geodesic", "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "geodesic.p" in err and "geodesic.q" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_depth_past_the_limit_is_refused(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run("geodesic", "--depth", str(MAX_DEPTH + 1), "--out", str(out)) == 2
        assert f"[1, {MAX_DEPTH}]" in capsys.readouterr().err
        assert not out.exists()

    def test_depth_at_the_limit_is_valid(self):
        config = RunConfig()
        config.set("geodesic", "depth", str(MAX_DEPTH))
        config.validate()

    PUNCTURED = "[backend]\nkind = punctured\nremoved = 1,0\n"

    def _geodesic(self, tmp_path, out, succeed):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("" if succeed else self.PUNCTURED)
        assert run("geodesic", "--config", str(cfg), "--out", str(out),
                   "--depth", "4") == (0 if succeed else 1)

    def test_failure_removes_outputs_of_an_earlier_success(self, tmp_path):
        out = tmp_path / "o"
        self._geodesic(tmp_path, out, succeed=True)
        self._geodesic(tmp_path, out, succeed=False)
        assert sorted(os.listdir(out)) == ["failure.json", "manifest.json"]
        assert read_json(out / "manifest.json")["config"]["backend"]["kind"] == "punctured"

    def test_success_removes_the_failure_record_of_an_earlier_run(self, tmp_path):
        out = tmp_path / "o"
        self._geodesic(tmp_path, out, succeed=False)
        self._geodesic(tmp_path, out, succeed=True)
        assert sorted(os.listdir(out)) == ["certificates.json", "curve.json",
                                           "manifest.json", "summary.txt"]

    def test_module_entry_point_runs_from_a_checkout(self, tmp_path):
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
        proc = subprocess.run(
            [sys.executable, "-m", "causalgeo", "geodesic", "--depth", "3", "--out", "o"],
            cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "subsequent_dyadic_bound" in proc.stdout
        assert (tmp_path / "o" / "curve.json").exists()

    def test_reruns_are_byte_identical(self, tmp_path):
        blobs, manifests = [], []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run("geodesic", "--out", str(out), "--depth", "5") == 0
            blobs.append(b"".join(
                (out / f).read_bytes()
                for f in ("curve.json", "certificates.json", "summary.txt")))
            manifest = read_json(out / "manifest.json")
            manifest["config"]["run"].pop("out")
            manifests.append(manifest)
        assert blobs[0] == blobs[1]
        assert manifests[0] == manifests[1]


class TestNulldistCommand:
    def test_causet_table(self, tmp_path, skewed_diamond):
        from causalgeo import save_causet_json
        causet_path = tmp_path / "causet.json"
        save_causet_json(skewed_diamond, causet_path)
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("src,dst\np,q\na,b\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[backend]\nkind = causet\ncauset_json = {causet_path}\n")
        out = tmp_path / "o"
        assert run("nulldist", "--config", str(cfg), "--pairs", str(pairs),
                   "--out", str(out)) == 0
        with open(out / "distances.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["src", "dst", "d_T", "method"]
        table = {(r[0], r[1]): (float(r[2]), r[3]) for r in rows[1:]}
        assert table[("p", "q")] == (2.0, "causal_exact")
        # a -> q -> b or a -> p -> b: both joints contribute 1.8 + 0.2... the
        # cheaper detour goes through p (0.2 twice) or q (1.8 symmetric);
        # Dijkstra finds 2 * min(1.8, 0.2) + adjustments = exact 2*0.2? No:
        # legs are |T| differences: via p costs 0.2 + 1.8, via q 0.2 + 1.8.
        assert table[("a", "b")][1] == "graph"
        assert table[("a", "b")][0] == 2.0

    def test_disconnected_pair_marks_inf(self, tmp_path):
        from causalgeo import CausalSetSpace, save_causet_json
        space = CausalSetSpace([("a", 0), ("b", 1), ("c", 0), ("d", 1)],
                               [("a", "b", 1), ("c", "d", 1)])
        causet_path = tmp_path / "causet.json"
        save_causet_json(space, causet_path)
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("src,dst\na,c\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[backend]\nkind = causet\ncauset_json = {causet_path}\n")
        out = tmp_path / "o"
        assert run("nulldist", "--config", str(cfg), "--pairs", str(pairs),
                   "--out", str(out)) == 0
        body = (out / "distances.csv").read_text().splitlines()
        assert body[1].split(",")[2] == "inf"

    def test_minkowski_coordinate_pairs(self, tmp_path):
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("src,dst\n0;0,2;0\n0;0,0;1\n")
        out = tmp_path / "o"
        assert run("nulldist", "--pairs", str(pairs), "--out", str(out)) == 0
        with open(out / "distances.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[1][2] == "2.0"
        assert rows[1][3] == "causal_exact"
        assert abs(float(rows[2][2]) - 1.0) < 1e-9
        assert rows[2][3] == "zigzag"

    def test_analytic_method_is_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[nulldist]\nmethod = analytic\n")
        assert run("nulldist", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
        with pytest.raises(SystemExit) as exc:
            run("nulldist", "--method", "analytic", "--out", str(tmp_path / "o"))
        assert exc.value.code == 2

    def test_pairs_file_required(self, tmp_path):
        assert run("nulldist", "--out", str(tmp_path / "o")) == 2

    def test_unknown_vertex_is_config_error(self, tmp_path, diamond):
        from causalgeo import save_causet_json
        causet_path = tmp_path / "causet.json"
        save_causet_json(diamond, causet_path)
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("src,dst\np,zz\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[backend]\nkind = causet\ncauset_json = {causet_path}\n")
        assert run("nulldist", "--config", str(cfg), "--pairs", str(pairs),
                   "--out", str(tmp_path / "o")) == 2


class TestLensCommand:
    def test_golden_default_figure(self, tmp_path):
        out = tmp_path / "o"
        assert run("lens", "--out", str(out), "--seed", "42") == 0
        produced = (out / "lens.svg").read_text()
        golden = open(GOLDEN).read()
        pattern = re.compile(r"-?\d+\.\d+")
        got = [float(tok) for tok in pattern.findall(produced)]
        want = [float(tok) for tok in pattern.findall(golden)]
        assert len(got) == len(want)
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-6
        assert pattern.sub("#", produced) == pattern.sub("#", golden)

    def test_boundary_csv_header_and_strip(self, tmp_path):
        out = tmp_path / "o"
        assert run("lens", "--out", str(out), "--seed", "42") == 0
        with open(out / "boundary.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["curve_id", "t", "x"]
        curves = {r[0] for r in rows[1:]}
        assert curves == {"lens_upper", "lens_lower", "strip_lower", "strip_upper",
                          "time_axis"}
        strip_ts = {r[0]: float(r[1]) for r in rows[1:] if r[0].startswith("strip")}
        assert strip_ts["strip_lower"] == pytest.approx(1.6, abs=1e-6)
        assert strip_ts["strip_upper"] == pytest.approx(2.4, abs=1e-6)

    def test_half_c_with_explicit_epsilon_collapses_strip(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[lens]\nc = 0.5\nepsilon = 0.05\n")
        out = tmp_path / "o"
        assert run("lens", "--config", str(cfg), "--out", str(out)) == 0
        with open(out / "boundary.csv") as fh:
            rows = list(csv.reader(fh))
        strip_ts = {r[0]: float(r[1]) for r in rows[1:] if r[0].startswith("strip")}
        assert strip_ts["strip_lower"] == pytest.approx(strip_ts["strip_upper"],
                                                        abs=1e-9)

    def test_auto_epsilon_needs_positive_strip_width(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[lens]\nc = 0.5\n")  # epsilon stays "auto"
        assert run("lens", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2

    def test_needs_flat_backend(self, tmp_path, diamond):
        from causalgeo import save_causet_json
        causet_path = tmp_path / "causet.json"
        save_causet_json(diamond, causet_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[backend]\nkind = causet\ncauset_json = {causet_path}\n")
        assert run("lens", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2


class TestCertifyCommand:
    def test_minkowski_suite_passes(self, tmp_path):
        out = tmp_path / "o"
        assert run("certify", "--out", str(out), "--seed", "3") == 0
        certs = {c["name"]: c for c in read_json(out / "certificates.json")}
        assert set(certs) == {"chronology", "reverse_triangle", "anti_lipschitz",
                              "metric_axioms", "compatibility", "analytic_fast_path"}
        assert all(c["verdict"] == "pass" for c in certs.values())

    def test_cubic_time_function_fails_anti_lipschitz(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[backend]\nwindow_t = -0.4 0.4\nwindow_radius = 0.4\n"
                       "\n[time_function]\nkind = cubic\n")
        out = tmp_path / "o"
        assert run("certify", "--config", str(cfg), "--out", str(out)) == 1
        certs = {c["name"]: c for c in read_json(out / "certificates.json")}
        assert certs["anti_lipschitz"]["verdict"] == "fail"

    def test_skewed_diamond_compatibility_threshold(self, tmp_path, skewed_diamond):
        from causalgeo import save_causet_json
        causet_path = tmp_path / "causet.json"
        save_causet_json(skewed_diamond, causet_path)
        base = (f"[backend]\nkind = causet\ncauset_json = {causet_path}\n\n")
        for c_value, expected in (("0.1", 0), ("0.2", 1)):
            cfg = tmp_path / f"run{c_value}.cfg"
            cfg.write_text(base + f"[certify]\nc = {c_value}\n")
            out = tmp_path / f"o{c_value}"
            assert run("certify", "--config", str(cfg), "--out", str(out)) == expected


class TestCausetCommand:
    def test_sprinkle_roundtrip(self, tmp_path):
        out = tmp_path / "o"
        assert run("causet", "--backend", "sprinkle", "--density", "40",
                   "--seed", "9", "--out", str(out)) == 0
        from causalgeo import load_causet_csv, load_causet_json
        by_json = load_causet_json(out / "causet.json")
        by_csv = load_causet_csv(out / "vertices.csv", out / "edges.csv")
        assert by_json.vertices == by_csv.vertices
        assert by_json.edges == by_csv.edges

    def test_requires_discrete_backend(self, tmp_path):
        assert run("causet", "--out", str(tmp_path / "o")) == 2


class TestPointLabels:
    def test_distance_labels_parse_back(self, tmp_path):
        from causalgeo.cli import _parse_point
        a, b = (0.123456789012, -0.3333333333333333), (1.0000001, 0.7000000000000001)
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("src,dst\n" + ",".join(
            ";".join(repr(c) for c in point) for point in (a, b)) + "\n")
        out = tmp_path / "o"
        assert run("nulldist", "--pairs", str(pairs), "--out", str(out)) == 0
        with open(out / "distances.csv") as fh:
            rows = list(csv.reader(fh))
        assert (_parse_point(rows[1][0]), _parse_point(rows[1][1])) == (a, b)

    def test_failure_labels_parse_back(self, tmp_path):
        from causalgeo.cli import _parse_point
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[backend]\nkind = punctured\nremoved = 1.00000005,0\n\n"
                       "[geodesic]\nq = 2.0000001,0\n")
        out = tmp_path / "o"
        assert run("geodesic", "--config", str(cfg), "--out", str(out),
                   "--depth", "3") == 1
        failure = read_json(out / "failure.json")
        assert [_parse_point(label) for label in failure["pair"]] == [
            (0.0, 0.0), (2.0000001, 0.0)]


class TestGoldenGeodesic:
    """Depth-5 runs whose outputs were recorded from the Fraction-keyed curve
    and the Newton midpoint solver; the index-backed curve and the closed-form
    midpoint must reproduce them byte for byte.  The depth-10 run was
    recorded from ``json.dumps`` of the whole curve, before it was streamed,
    and before each adjacent tau was threaded through the build."""

    @pytest.mark.parametrize("name", ["geodesic_exact_d5", "geodesic_punctured_d5",
                                      "geodesic_exact_d10"])
    def test_outputs_match_golden(self, tmp_path, name):
        golden = os.path.join(os.path.dirname(__file__), "golden")
        out = tmp_path / "o"
        assert run("geodesic", "--config", os.path.join(golden, f"{name}.cfg"),
                   "--out", str(out)) == 0
        for filename in ("curve.json", "certificates.json"):
            with open(os.path.join(golden, name, filename), "rb") as fh:
                assert (out / filename).read_bytes() == fh.read(), filename


class TestGoldenCertify:
    """A density-100 sprinkle (58 vertices, so 58^3 > 8000 and chains are
    sampled); its certificates were recorded while pairs and chains were
    still listed in full and Dijkstra added Fractions."""

    def test_certificates_match_golden(self, tmp_path):
        golden = os.path.join(os.path.dirname(__file__), "golden")
        out = tmp_path / "o"
        assert run("certify", "--config", os.path.join(golden, "certify_causet_d100.cfg"),
                   "--out", str(out)) == 0
        with open(os.path.join(golden, "certify_causet_d100", "certificates.json"),
                  "rb") as fh:
            assert (out / "certificates.json").read_bytes() == fh.read()


class TestGoldenZigzag:
    """Flat Minkowski 1+2 runs through the zigzag route, recorded while it
    still ran the four-segment search on every spacelike pair; stopping at
    the null corner must reproduce them byte for byte."""

    def test_nulldist_matches_golden(self, tmp_path):
        # 300 pairs uniform in [-1, 1]^3, drawn with random.Random(5).
        golden = os.path.join(os.path.dirname(__file__), "golden")
        out = tmp_path / "o"
        assert run("nulldist", "--config", os.path.join(golden, "nulldist_flat_300.cfg"),
                   "--pairs", os.path.join(golden, "nulldist_flat_300_pairs.csv"),
                   "--out", str(out)) == 0
        with open(os.path.join(golden, "nulldist_flat_300", "distances.csv"), "rb") as fh:
            assert (out / "distances.csv").read_bytes() == fh.read()

    def test_certificates_match_golden(self, tmp_path):
        # metric_axioms and analytic_fast_path both take the zigzag route.
        golden = os.path.join(os.path.dirname(__file__), "golden")
        out = tmp_path / "o"
        assert run("certify", "--config", os.path.join(golden, "certify_flat.cfg"),
                   "--out", str(out)) == 0
        with open(os.path.join(golden, "certify_flat", "certificates.json"), "rb") as fh:
            assert (out / "certificates.json").read_bytes() == fh.read()


class TestPerCommandFlags:
    """A subcommand accepts only the flags whose config keys it reads."""

    @pytest.mark.parametrize("argv", [
        ["certify", "--c", "0.1", "--epsilon-hat", "0.3"],
        ["lens", "--c", "0.2"],
    ])
    def test_flags_of_other_sections_are_rejected(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--out", str(tmp_path / "o"))
        assert exc.value.code == 2
        assert not (tmp_path / "o").exists()

    def test_documented_command_lines_parse(self, tmp_path):
        import shlex
        import sys

        from causalgeo.cli import _build_parser
        root = os.path.dirname(os.path.dirname(__file__))
        with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
            lines = [shlex.split(m.group(1))
                     for m in re.finditer(r"^causalgeo (.+)$", fh.read(), re.M)]
        assert len(lines) == 5
        sys.path.insert(0, os.path.join(root, "perfbench"))
        try:
            from workloads import WORKLOADS
        finally:
            sys.path.pop(0)
        for workload in WORKLOADS.values():
            lines += workload.setup_cli(str(tmp_path))
            lines += [argv for argv, _ in workload.round(str(tmp_path))]
        assert {argv[0] for argv in lines} == {"geodesic", "nulldist", "lens", "certify",
                                               "causet"}
        parser = _build_parser()
        for argv in lines:
            parser.parse_args(argv)
