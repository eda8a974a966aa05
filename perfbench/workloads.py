"""The benchmark workloads: their inputs, their CLI rounds and their output checks.

Each workload writes its inputs in :meth:`Workload.prepare` (run in the set-up
child, see ``prepare.py``), names the ``causalgeo`` subcommands of one timed
round in :meth:`Workload.round`, and checks a round's outputs in
:meth:`Workload.check` against computations made here, apart from the
program, or against properties the mathematics guarantees.  Only the inputs
that ``--seed`` is documented to change depend on it.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction

TOL = 1e-9


@dataclass
class Outcome:
    """What one round did: operations attempted and failed, and work done.

    ``wrong`` counts failed operations that the program did not report as
    failed but that a check here disagrees with.
    """

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    items: int = 0

    def add(self, program_failed=False, check_failed=False):
        self.attempted += 1
        if program_failed or check_failed:
            self.failed += 1
        if check_failed and not program_failed:
            self.wrong += 1

    def merge(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong


class CheckError(Exception):
    """An output file is missing or malformed, so the round cannot be judged."""


def _read_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckError(f"cannot read {path}: {exc}") from None


def _read_csv(path):
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.reader(fh))
    except OSError as exc:
        raise CheckError(f"cannot read {path}: {exc}") from None


def _write_text(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _config(sections):
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in values.items())
        lines.append("")
    return "\n".join(lines)


def _coords(point):
    return ",".join(map(repr, point))


def _point_text(point):
    return ";".join(repr(float(c)) for c in point)


def minkowski_tau(a, b):
    dt = b[0] - a[0]
    dx = math.dist(a[1:], b[1:])
    return math.sqrt(dt * dt - dx * dx) if dt > dx else 0.0


def _pairs_and_distances(run_dir):
    """Input pairs and the ``distances.csv`` rows, without their headers."""
    pairs = _read_csv(os.path.join(run_dir, "pairs.csv"))[1:]
    rows = _read_csv(os.path.join(run_dir, "out", "distances.csv"))
    if rows[:1] != [["src", "dst", "d_T", "method"]] or len(rows) - 1 != len(pairs):
        raise CheckError("distances.csv does not have one row per input pair")
    return pairs, rows[1:]


def _certificates(out_dir):
    payload = _read_json(os.path.join(out_dir, "certificates.json"))
    return {cert["name"]: cert for cert in payload}


class Workload:
    name = ""
    subcommand = config = ""
    # Set-up is repeated this many times per untraced run and its median reported.
    setup_repeats = 7
    # (density, sprinkle seed) of the causal set saved by set-up, or None.
    sprinkle = None

    def setup_cli(self, run_dir):
        """``causalgeo`` arguments the set-up runs before ``prepare``."""
        if self.sprinkle is None:
            return []
        density, seed = self.sprinkle
        return [["causet", "--backend", "sprinkle", "--density", str(density),
                 "--seed", str(seed), "--out", os.path.join(run_dir, "causet")]]

    def prepare(self, run_dir, seed):
        """Write the config and pairs files; return the config paths."""
        raise NotImplementedError

    def round(self, run_dir):
        """(``causalgeo`` arguments, output directory) of each step of one round.

        By default one step: ``causalgeo SUBCOMMAND --config CONFIG``.
        """
        out = os.path.join(run_dir, "out")
        return [([self.subcommand, "--config", os.path.join(run_dir, self.config),
                  "--out", out], out)]

    def check(self, run_dir):
        """Check one round's outputs; return its Outcome."""
        raise NotImplementedError


class GeodesicFlat(Workload):
    name = "geodesic-flat"
    setup_repeats = 11

    EXACT = {"p": (0.0, 0.0, 0.0), "q": (2.0, 0.5, -0.3), "c": 0.5, "depth": 16}
    PUNCTURED = {"p": (0.0, 0.0), "q": (2.0, 0.0), "c": 0.4, "depth": 14,
                 "epsilon_hat": 0.1, "removed": (1.0, 0.0)}

    def prepare(self, run_dir, seed):
        exact, punct = self.EXACT, self.PUNCTURED
        paths = [os.path.join(run_dir, "exact.cfg"), os.path.join(run_dir, "punctured.cfg")]
        _write_text(paths[0], _config({
            "run": {"seed": seed},
            "backend": {"kind": "minkowski", "spatial_dimension": 2},
            "geodesic": {"p": _coords(exact["p"]),
                         "q": _coords(exact["q"]),
                         "c": exact["c"], "depth": exact["depth"], "mode": "exact"},
        }))
        _write_text(paths[1], _config({
            "run": {"seed": seed},
            "backend": {"kind": "punctured", "spatial_dimension": 1,
                        "removed": _coords(punct["removed"])},
            "geodesic": {"p": _coords(punct["p"]),
                         "q": _coords(punct["q"]),
                         "c": punct["c"], "depth": punct["depth"], "mode": "approximate",
                         "epsilon_hat": punct["epsilon_hat"]},
        }))
        return paths

    def round(self, run_dir):
        return [(["geodesic", "--config", os.path.join(run_dir, f"{kind}.cfg"),
                  "--out", os.path.join(run_dir, "out", kind)],
                 os.path.join(run_dir, "out", kind))
                for kind in ("exact", "punctured")]

    @staticmethod
    def _points_by_index(curve, depth):
        """Stored points keyed by k * 2^(depth-n), the index at the finest level."""
        points = {}
        for entry in curve["values"]:
            points[entry["k"] << (depth - entry["n"])] = tuple(entry["point"])
        if len(points) != (1 << depth) + 1 or len(curve["values"]) != len(points):
            raise CheckError(f"curve stores {len(curve['values'])} values, "
                             f"expected {(1 << depth) + 1}")
        return points

    def _exact_curve_ok(self, curve):
        p, q, depth = self.EXACT["p"], self.EXACT["q"], self.EXACT["depth"]
        points = self._points_by_index(curve, depth)
        scale = 1 << depth
        # The affine midpoint is the unique tau-midpoint on flat space.
        return all(max(abs(pi + (k / scale) * (qi - pi) - ci)
                       for pi, qi, ci in zip(p, q, point)) <= TOL
                   for k, point in points.items())

    def _punctured_curve_ok(self, curve):
        spec = self.PUNCTURED
        depth = spec["depth"]
        points = self._points_by_index(curve, depth)
        if spec["removed"] in points.values():
            return False
        tau_pq = minkowski_tau(spec["p"], spec["q"])
        eps = spec["epsilon_hat"] * tau_pq
        for level in range(1, depth + 1):
            step = 1 << (depth - level)
            floor = (tau_pq - eps) / (1 << level) - TOL
            for i in range(0, 1 << depth, step):
                if not minkowski_tau(points[i], points[i + step]) > floor:
                    return False
        return True

    def check(self, run_dir):
        outcome = Outcome()
        for kind, curve_ok in (("exact", self._exact_curve_ok),
                               ("punctured", self._punctured_curve_ok)):
            out_dir = os.path.join(run_dir, "out", kind)
            curve = _read_json(os.path.join(out_dir, "curve.json"))
            certs = _certificates(out_dir)
            if len(certs) != 5:
                raise CheckError(f"{kind} curve has {len(certs)} certificates, expected 5")
            good_curve = curve_ok(curve)
            for cert in certs.values():
                outcome.add(program_failed=cert["verdict"] != "pass",
                            check_failed=not good_curve)
            outcome.items += len(curve["values"]) - 2
        return outcome


class NulldistFlat(Workload):
    name = "nulldist-flat"
    subcommand, config = "nulldist", "nulldist.cfg"
    setup_repeats = 11
    PAIRS = 3000

    def prepare(self, run_dir, seed):
        rng = random.Random(seed)
        rows = []
        for _ in range(self.PAIRS):
            a = tuple(rng.uniform(-1.0, 1.0) for _ in range(3))
            b = tuple(rng.uniform(-1.0, 1.0) for _ in range(3))
            rows.append(f"{_point_text(a)},{_point_text(b)}")
        pairs = os.path.join(run_dir, "pairs.csv")
        _write_text(pairs, "src,dst\n" + "\n".join(rows) + "\n")
        path = os.path.join(run_dir, self.config)
        _write_text(path, _config({
            "run": {"seed": seed},
            "backend": {"kind": "minkowski", "spatial_dimension": 2},
            "nulldist": {"pairs_file": pairs},
        }))
        return [path]

    def check(self, run_dir):
        pairs, rows = _pairs_and_distances(run_dir)
        outcome = Outcome()
        # Rows are joined to inputs by position: the src/dst labels are rounded.
        for (src, dst), row in zip(pairs, rows):
            a = tuple(map(float, src.split(";")))
            b = tuple(map(float, dst.split(";")))
            if row[2] == "inf":
                outcome.add(program_failed=True)
                continue
            # Segments bound d_T below by max(|dt|, |dx|); the null corner attains it.
            expected = max(abs(b[0] - a[0]), math.dist(a[1:], b[1:]))
            outcome.add(check_failed=abs(float(row[2]) - expected) > TOL)
        outcome.items = len(pairs)
        return outcome


class CertifyCauset(Workload):
    name = "certify-causet"
    subcommand, config = "certify", "certify.cfg"
    sprinkle = (400, 42)
    # Hold for any weighted DAG whose times increase along edges.
    MUST_PASS = ("chronology", "reverse_triangle", "anti_lipschitz", "metric_axioms")

    def prepare(self, run_dir, seed):
        # Inputs and the certificate sampling seed are fixed (42), so the one
        # certificate that fails today fails on every run whatever --seed is.
        path = os.path.join(run_dir, self.config)
        _write_text(path, _config({
            "run": {"seed": 42},
            "backend": {"kind": "causet",
                        "causet_json": os.path.join(run_dir, "causet", "causet.json")},
            "certify": {"c": 0.1, "epsilon_hat": 0.1, "sample_budget": 200},
        }))
        return [path]

    def check(self, run_dir):
        causet = _read_json(os.path.join(run_dir, "causet", "causet.json"))
        time = {v["id"]: Fraction(v["T"]) for v in causet["vertices"]}
        if not all(time[e["dst"]] > time[e["src"]] for e in causet["edges"]):
            raise CheckError("saved causal set has a link against the time order")
        certs = _certificates(os.path.join(run_dir, "out"))
        if sorted(certs) != sorted(self.MUST_PASS + ("compatibility",)):
            raise CheckError(f"unexpected certificate set {sorted(certs)}")
        outcome = Outcome()
        for name in self.MUST_PASS:
            outcome.add(program_failed=certs[name]["verdict"] != "pass")
        compat = certs["compatibility"]
        data = compat["data"]
        best = [Fraction(v) for v in data["best_c_values"]]
        counts_add_up = (data["pairs_checked"] + data["pairs_without_midpoint"]
                         == compat["samples_checked"]
                         and len(best) == data["pairs_checked"])
        in_range = all(0 <= c <= Fraction(1, 2) for c in best)
        outcome.add(program_failed=compat["verdict"] != "pass",
                    check_failed=not (counts_add_up and in_range))
        outcome.items = sum(cert["samples_checked"] for cert in certs.values())
        return outcome


WORKLOADS = {w.name: w for w in (GeodesicFlat(), NulldistFlat(), CertifyCauset())}
