"""CLI: config parsing, subcommands, exit codes, artifact reproducibility."""

import ast
import csv
import json
import os
import re
import subprocess
import sys

import pytest

import causalgeo
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

    @pytest.mark.parametrize("backend, files", [
        ("causet_json = missing.json", {}),
        ("causet_json = untimed.json", {"untimed.json": '{"vertices": [{"id": "a"}], '
                                                        '"edges": []}'}),
        ("causet_json = negative.json", {"negative.json": (
            '{"vertices": [{"id": "a", "T": 0}, {"id": "b", "T": 1}], '
            '"edges": [{"src": "a", "dst": "b", "tau": -1}]}')}),
        ("vertices_csv = empty.csv\nedges_csv = edges.csv",
         {"empty.csv": "", "edges.csv": "src,dst,tau\n"}),
        ("vertices_csv = short.csv\nedges_csv = edges.csv",
         {"short.csv": "id,T\na\n", "edges.csv": "src,dst,tau\n"}),
        ("causet_json = cycle.json", {"cycle.json": (
            '{"vertices": [{"id": "a", "T": 0}, {"id": "b", "T": 1}], '
            '"edges": [{"src": "a", "dst": "b", "tau": 1}, '
            '{"src": "b", "dst": "a", "tau": 1}]}')}),
        ("causet_json = loop.json", {"loop.json": (
            '{"vertices": [{"id": "a", "T": 0}], '
            '"edges": [{"src": "a", "dst": "a", "tau": 1}]}')}),
    ])
    def test_malformed_causet_input_is_a_config_error(self, tmp_path, capsys, monkeypatch,
                                                      backend, files):
        monkeypatch.chdir(tmp_path)
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        (tmp_path / "run.cfg").write_text(f"[backend]\nkind = causet\n{backend}\n")
        assert run("certify", "--config", "run.cfg", "--out", "o") == 2
        err = capsys.readouterr().err
        assert backend.split()[2] in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, files, named", [
        ("geodesic", {"run.cfg": "seed = 1\n"}, "run.cfg"),
        ("geodesic", {"run.cfg": "[run]\nseed = 1\nseed = 2\n"}, "run.cfg"),
        ("geodesic", {"run.cfg": "[run]\nseed = 1\n[run]\nout = o\n"}, "run.cfg"),
        ("nulldist", {"run.cfg": "[nulldist]\npairs_file = missing.csv\n"},
         "nulldist.pairs_file"),
        ("nulldist", {"run.cfg": "[nulldist]\npairs_file = pairs.csv\n", "pairs.csv": ""},
         "nulldist.pairs_file"),
        ("nulldist", {"run.cfg": "[nulldist]\npairs_file = pairs.csv\n",
                      "pairs.csv": "src,dst\n0;0\n"}, "nulldist.pairs_file"),
        ("certify", {"run.cfg": "[backend]\nkind = punctured\nremoved = abc\n"},
         "backend.removed"),
        ("certify", {"run.cfg": "[backend]\nkind = punctured\nremoved = 1,0,0\n"},
         "backend.removed"),
        ("causet", {"run.cfg": "[backend]\nkind = sprinkle\ncorners = 0,0|1,0,0\n"},
         "backend.corners"),
        ("causet", {"run.cfg": "[backend]\nkind = sprinkle\ncorners = 0,0|0,1\n"},
         "backend.corners"),
        ("causet", {"run.cfg": "[backend]\nkind = sprinkle\ncorners = 0,0\n"},
         "backend.corners"),
    ], ids=["no-section-header", "duplicate-key", "duplicate-section", "pairs-missing",
            "pairs-empty", "pairs-one-column", "removed-not-a-point", "removed-too-long",
            "corners-too-long", "corners-spacelike", "corners-one-point"])
    def test_malformed_input_exits_2_without_traceback(self, tmp_path, capsys, monkeypatch,
                                                       command, files, named):
        monkeypatch.chdir(tmp_path)
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        assert run(command, "--config", "run.cfg", "--out", "o") == 2
        err = capsys.readouterr().err
        assert named in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

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

    @pytest.mark.parametrize("geodesic, named", [
        ("mode = approximate\nepsilon = 0.05\nepsilon_hat = 0.3\n",
         ("geodesic.epsilon", "geodesic.epsilon_hat")),
        ("mode = approximate\n", ("geodesic.epsilon", "geodesic.epsilon_hat")),
        ("mode = exact\nepsilon_hat = 0.3\n", ("geodesic.epsilon_hat",)),
        ("mode = exact\nepsilon = 0.3\n", ("geodesic.epsilon",)),
    ], ids=["approximate-both", "approximate-neither", "exact-epsilon-hat", "exact-epsilon"])
    def test_one_tolerance_only_in_approximate_mode(self, tmp_path, capsys, geodesic, named):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[geodesic]\n" + geodesic)
        out = tmp_path / "o"
        assert run("geodesic", "--config", str(cfg), "--out", str(out), "--depth", "3") == 2
        err = capsys.readouterr().err
        assert all(key in err for key in named)
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("backend, tolerance, named", [
        ("minkowski", ["--epsilon-hat", "1.5"], "geodesic.epsilon_hat"),
        ("minkowski", ["--epsilon", "5"], "geodesic.epsilon"),
        ("sprinkle", ["--epsilon-hat", "2"], "geodesic.epsilon_hat"),
    ], ids=["epsilon-hat", "epsilon", "sprinkle-epsilon-hat"])
    def test_tolerance_not_below_tau_is_a_config_error(self, tmp_path, capsys, backend,
                                                       tolerance, named):
        cfg = tmp_path / "run.cfg"
        if backend == "sprinkle":
            # The sprinkle's first and last vertices are its two corners.
            vertices = causalgeo.sprinkle_causet(((0.0, 0.0), (1.0, 0.0)), 100.0, 42).vertices
            cfg.write_text(f"[backend]\nkind = sprinkle\n\n[geodesic]\n"
                           f"p = {vertices[0]}\nq = {vertices[-1]}\n")
        else:
            cfg.write_text("")
        out = tmp_path / "o"
        assert run("geodesic", "--config", str(cfg), "--out", str(out), "--depth", "3",
                   "--mode", "approximate", *tolerance) == 2
        err = capsys.readouterr().err
        assert f"{named} =" in err and "tau(p, q)" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_null_pair_ignores_the_tolerance(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[geodesic]\np = 0,0\nq = 1,1\n")
        assert run("geodesic", "--config", str(cfg), "--out", str(tmp_path / "o"),
                   "--depth", "3", "--mode", "approximate", "--epsilon", "5") == 0

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
        assert body[1].split(",")[2:] == ["inf", "graph"]

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

    def test_analytic_method_is_rejected(self, tmp_path, capsys):
        # The input picks the route, so no method is a key or a flag.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[nulldist]\nmethod = analytic\n")
        assert run("nulldist", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
        assert "unknown config key nulldist.method" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            run("nulldist", "--method", "auto", "--out", str(tmp_path / "o"))
        assert exc.value.code == 2
        assert not (tmp_path / "o").exists()

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
        with open(GOLDEN) as handle:
            golden = handle.read()
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
        assert curves == {"lens_p", "lens_q", "strip_lower", "strip_upper",
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

    def test_epsilon_not_below_half_tau_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[lens]\nepsilon = 3\n")  # tau(p, q) / 2 = 2
        out = tmp_path / "o"
        assert run("lens", "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "lens.epsilon" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("epsilon", ["auto", "0.1"])
    def test_boosted_pair_draws_both_arcs(self, tmp_path, epsilon):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[lens]\nq = 4,3\nc = 0.3\nepsilon = {epsilon}\n")
        out = tmp_path / "o"
        assert run("lens", "--config", str(cfg), "--out", str(out)) == 0
        with open(out / "boundary.csv") as fh:
            curves = [row[0] for row in csv.reader(fh)]
        assert curves.count("lens_p") == curves.count("lens_q") == 201

    @pytest.mark.parametrize("time_kind", ["coordinate", "cubic"])
    @pytest.mark.parametrize("section", [
        "q = 4,1.5", "q = 4,1", "q = 4,0.5\nc = 0.3", "q = 4,2", "q = 4,2.5",
        "q = 4,3\nc = 0.3", "c = 0.5", "epsilon = 2", "q = 0,4",
    ])
    def test_sweep_exits_0_or_2_without_traceback(self, tmp_path, capsys, section,
                                                  time_kind):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[time_function]\nkind = {time_kind}\n\n[lens]\n{section}\n")
        assert run("lens", "--config", str(cfg), "--out", str(tmp_path / "o")) in (0, 2)
        assert "Traceback" not in capsys.readouterr().err


def test_source_raises_no_runtime_error():
    # RuntimeError is not a CausalGeoError, so main would let it escape as a
    # traceback with exit 1 instead of reporting it.
    package = os.path.dirname(causalgeo.__file__)
    raised = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "RuntimeError":
                    raised.append(f"{name}:{node.lineno}")
    assert raised == []


class TestCertifyCommand:
    def test_minkowski_suite_passes(self, tmp_path):
        out = tmp_path / "o"
        assert run("certify", "--out", str(out), "--seed", "3") == 0
        certs = {c["name"]: c for c in read_json(out / "certificates.json")}
        assert set(certs) == {"chronology", "reverse_triangle", "anti_lipschitz",
                              "metric_axioms", "compatibility"}
        assert all(c["verdict"] == "pass" for c in certs.values())

    def test_cubic_time_function_fails_anti_lipschitz(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[backend]\nwindow_t = -0.4 0.4\nwindow_radius = 0.4\n"
                       "\n[time_function]\nkind = cubic\n")
        out = tmp_path / "o"
        assert run("certify", "--config", str(cfg), "--out", str(out)) == 1
        certs = {c["name"]: c for c in read_json(out / "certificates.json")}
        assert certs["anti_lipschitz"]["verdict"] == "fail"

    def test_cubic_time_function_passes_compatibility(self, tmp_path):
        # Each sampled pair's lens holds points whose t^3 is within the
        # middle fifth of the pair's range; the affine midpoint's often is not.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[backend]\nwindow_t = 0.5 1.5\nwindow_radius = 0.5\n"
                       "\n[time_function]\nkind = cubic\ncubic_half_width = 2\n"
                       "\n[certify]\nc = 0.4\nepsilon_hat = 0.3\n")
        out = tmp_path / "o"
        assert run("certify", "--config", str(cfg), "--out", str(out)) == 0
        certs = {c["name"]: c for c in read_json(out / "certificates.json")}
        assert certs["compatibility"]["verdict"] == "pass"
        assert certs["compatibility"]["data"]["pairs_checked"] == 200

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


    def test_tolerance_reaches_every_certificate(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[certify]\nsample_budget = 10\ntolerance = 1e-6\n")
        out = tmp_path / "o"
        assert run("certify", "--config", str(cfg), "--out", str(out)) == 0
        certs = {c["name"]: c for c in read_json(out / "certificates.json")}
        assert {c["tolerance"] for c in certs.values()} == {1e-6}

    def test_failure_removes_outputs_of_an_earlier_success(self, tmp_path):
        out = tmp_path / "o"
        assert run("certify", "--out", str(out)) == 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[time_function]\nkind = cubic\n")
        assert run("certify", "--config", str(cfg), "--out", str(out)) == 1
        assert sorted(os.listdir(out)) == ["failure.json", "manifest.json"]
        assert read_json(out / "failure.json")["error"] == "WitnessMissing"
        assert read_json(out / "manifest.json")["config"]["time_function"]["kind"] == "cubic"


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

    def test_density_past_the_budget_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        import numpy as np

        def no_draw(*args, **kwargs):
            raise AssertionError("the sprinkle drew points")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        out = tmp_path / "o"
        assert run("causet", "--backend", "sprinkle", "--density", "1e9",
                   "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "backend.density" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestRunLifecycle:
    """``main`` settles the output directory the same way for every subcommand."""

    TINY = {"geodesic": ["--depth", "3"], "nulldist": ["--pairs", "pairs.csv"], "lens": [],
            "certify": [], "causet": ["--backend", "sprinkle", "--density", "40"]}
    OUTPUTS = {"geodesic": ("curve.json", "certificates.json", "summary.txt"),
               "nulldist": ("distances.csv",), "lens": ("lens.svg", "boundary.csv"),
               "certify": ("certificates.json", "summary.txt"),
               "causet": ("causet.json", "vertices.csv", "edges.csv")}

    @staticmethod
    def _run(tmp_path, monkeypatch, name, argv, config):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "pairs.csv").write_text("src,dst\n0;0,2;0\n")
        (tmp_path / "run.cfg").write_text(config)
        return run(name, "--config", "run.cfg", "--out", "o", *argv), tmp_path / "o"

    @pytest.mark.parametrize("name", sorted(TINY))
    def test_success_writes_the_listed_outputs_and_the_manifest(self, tmp_path, monkeypatch,
                                                                name):
        status, out = self._run(tmp_path, monkeypatch, name, self.TINY[name],
                                "[lens]\nresolution = 8\n[certify]\nsample_budget = 10\n")
        assert status == 0
        assert sorted(os.listdir(out)) == sorted(("manifest.json",) + self.OUTPUTS[name])
        assert read_json(out / "manifest.json")["command"] == name

    def test_command_table_lists_the_outputs(self):
        """The outputs a failure removes are the ones each command writes."""
        from causalgeo.cli import _COMMANDS
        assert {name: entry[2] for name, entry in _COMMANDS.items()} == self.OUTPUTS

    @pytest.mark.parametrize("name, config", [
        ("geodesic", "[geodesic]\nq = 0,1\n"),
        ("nulldist", "[backend]\nkind = punctured\nremoved = 2,0\n"),
        ("lens", "[lens]\nepsilon = 5\n"),
        ("certify", "[backend]\nkind = sprinkle\ndensity = 40\n"
                    "[time_function]\nkind = cubic\n"),
        ("causet", "[backend]\nkind = punctured\nremoved = 2,0\n"),
    ])
    def test_config_error_writes_nothing(self, tmp_path, monkeypatch, capsys, name, config):
        argv = [] if name == "causet" else self.TINY[name]
        status, out = self._run(tmp_path, monkeypatch, name, argv, config)
        assert status == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()


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
    recorded when the exact midpoint became (p+q)/2 coordinatewise, which
    moved 121 of its 1,025 points by at most 5.6e-17 from the plane-frame
    midpoint."""

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
    still listed in full and Dijkstra added Fractions.  The density-400 run
    is the ``certify-causet`` benchmark input (214 vertices), recorded
    before the two-pass midpoint scan, A* and the link sweep."""

    def _check(self, tmp_path, name):
        golden = os.path.join(os.path.dirname(__file__), "golden")
        out = tmp_path / "o"
        assert run("certify", "--config", os.path.join(golden, f"{name}.cfg"),
                   "--out", str(out)) == 0
        with open(os.path.join(golden, name, "certificates.json"), "rb") as fh:
            assert (out / "certificates.json").read_bytes() == fh.read()

    def test_certificates_match_golden(self, tmp_path):
        self._check(tmp_path, "certify_causet_d100")

    def test_density_400_certificates_match_golden(self, tmp_path):
        self._check(tmp_path, "certify_causet_d400")


class TestGoldenZigzag:
    """Flat Minkowski 1+2 runs through the zigzag route.  The distances were
    recorded when every corner level came to be valued by g(s), which moved
    213 of the 300 rows by at most 9.3e-12 onto max(|dt|, ||dx||); the
    certificates were recorded while the four-segment search still ran."""

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
        # metric_axioms takes the zigzag route on every spacelike pair.
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

    def test_readme_names_only_current_keys_and_every_flag(self):
        """Every ``key =`` line of README's ini block, commented or not, is a
        schema key of its section, and README spells out every flag."""
        from causalgeo.cli import _FLAGS, _SCHEMA
        root = os.path.dirname(os.path.dirname(__file__))
        with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
            text = fh.read()
        block = re.search(r"^```ini\n(.*?)^```", text, re.M | re.S).group(1)
        section, keys = None, []
        for line in block.splitlines():
            header = re.match(r"\[(\w+)\]", line)
            if header:
                section = header.group(1)
                assert section in _SCHEMA, section
            key = re.match(r";?\s*(\w+)\s*=", line)
            if key:
                keys.append(key.group(1))
                assert key.group(1) in _SCHEMA[section], (section, key.group(1))
        assert len(keys) >= 20
        for flag in _FLAGS:
            assert re.search(rf"--{flag.replace('_', '-')}(?![\w-])", text), flag

    def test_benchmark_configs_validate(self, tmp_path):
        """Every config the benchmark writes loads and validates, so a schema
        change that breaks a benchmark run fails here."""
        import sys

        root = os.path.dirname(os.path.dirname(__file__))
        sys.path.insert(0, os.path.join(root, "perfbench"))
        try:
            from workloads import WORKLOADS
        finally:
            sys.path.pop(0)
        for workload in WORKLOADS.values():
            run_dir = tmp_path / workload.name
            run_dir.mkdir()
            paths = workload.prepare(str(run_dir), 1)
            assert paths, workload.name
            for path in paths:
                config = RunConfig()
                config.load_file(path)
                config.validate()


def test_tracer_targets_resolve():
    """Every name the perfbench tracer wraps still names a callable, so a
    refactor that breaks ``perfbench/run.py --trace 1`` fails here."""
    import causalgeo.cli  # noqa: F401  (imports every layer module)

    root = os.path.dirname(os.path.dirname(__file__))
    sys.path.insert(0, os.path.join(root, "perfbench"))
    try:
        import tracer
    finally:
        sys.path.pop(0)
    targets = [*tracer.SPAN_TARGETS.values(), *tracer.COUNT_TARGETS.values()]
    for owner, attr in (target for group in targets for target in group):
        assert callable(getattr(tracer._resolve(owner), attr, None)), (owner, attr)
