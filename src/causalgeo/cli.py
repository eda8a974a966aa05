"""Command-line front end for batch experiments.

Subcommands: ``geodesic`` (dyadic synthesis plus certificates), ``nulldist``
(distance tables), ``lens`` (figure and boundary CSV), ``certify`` (the full
certificate battery), ``causet`` (generate and persist sprinkles).

Runs are configured by an INI-style file (one section per module, strict
``key = value`` parsing, unknown keys rejected) plus overriding flags.
Every run writes ``manifest.json`` (resolved config, seed, versions) so its
outputs can be reproduced byte-identically, and all files are written
atomically (temp file plus rename).

Exit codes: 0 all certificates pass, 1 a certificate failed or a
construction hypothesis broke, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import json
import os
import sys

import numpy as np

from . import __version__
from .core import (atomic_write, check_anti_lipschitz, check_chronology,
                   check_reverse_triangle)
from .errors import (CausalGeoError, ConfigError, DegenerateStrip,
                     MidpointUnavailable, NotConnected, UnsupportedBackend)
from .figures import lens_boundary_rows, lens_figure_svg
from .geodesic import MAX_DEPTH, synthesize_geodesic
from .midpoints import LensStrip, certify_compatibility, lens_in_strip_epsilon
from .nulldist import check_metric_axioms, null_distance, validate_analytic_fast_path
from .spaces import (MinkowskiSpace, PuncturedMinkowski,
                     canonical_time_bundle, causet_time_bundle, cubic_time_bundle,
                     load_causet_csv, load_causet_json, save_causet_csv,
                     save_causet_json, sprinkle_causet)


def _parse_point(text):
    """Coordinate tuples come as 't,x[,...]' or 't;x'; anything else is a vertex id."""
    text = text.strip()
    for sep in (";", ","):
        if sep in text:
            try:
                return tuple(float(tok) for tok in text.split(sep))
            except ValueError:
                break
    return text


def _parse_point_list(text):
    return tuple(_parse_point(tok) for tok in text.split("|") if tok.strip())


def _parse_pair_of_floats(text):
    parts = [float(tok) for tok in text.replace(",", " ").split()]
    if len(parts) != 2:
        raise ValueError("expected two numbers")
    return tuple(parts)


def _parse_eps(text):
    text = text.strip()
    if text == "auto":
        return "auto"
    return float(text)


_SCHEMA = {
    "run": {"seed": int, "out": str},
    "backend": {
        "kind": str,
        "spatial_dimension": int,
        "window_t": _parse_pair_of_floats,
        "window_radius": float,
        "removed": _parse_point_list,
        "causet_json": str,
        "vertices_csv": str,
        "edges_csv": str,
        "corners": _parse_point_list,
        "density": float,
    },
    "time_function": {"kind": str, "cubic_half_width": float},
    "geodesic": {
        "p": _parse_point, "q": _parse_point, "c": float, "epsilon": float,
        "epsilon_hat": float, "depth": int, "mode": str,
    },
    "nulldist": {"pairs_file": str, "method": str},
    "lens": {"p": _parse_point, "q": _parse_point, "epsilon": _parse_eps,
             "c": float, "resolution": int},
    "certify": {"sample_budget": int, "tolerance": float, "c": float,
                "epsilon_hat": float},
}

_DEFAULTS = {
    "run": {"seed": 42, "out": "out"},
    "backend": {
        "kind": "minkowski", "spatial_dimension": 1, "window_t": (-3.0, 3.0),
        "window_radius": 3.0, "removed": (), "causet_json": "",
        "vertices_csv": "", "edges_csv": "",
        "corners": ((0.0, 0.0), (1.0, 0.0)), "density": 100.0,
    },
    "time_function": {"kind": "coordinate", "cubic_half_width": 0.5},
    "geodesic": {"p": (0.0, 0.0), "q": (2.0, 0.0), "c": 0.5, "epsilon": 0.0,
                 "epsilon_hat": 0.0, "depth": 10, "mode": "exact"},
    "nulldist": {"pairs_file": "", "method": "auto"},
    "lens": {"p": (0.0, 0.0), "q": (4.0, 0.0), "epsilon": "auto", "c": 0.4,
             "resolution": 200},
    "certify": {"sample_budget": 200, "tolerance": 1e-9, "c": 0.5,
                "epsilon_hat": 0.0},
}


class RunConfig:
    """Strictly-validated run configuration (defaults, file, then flags)."""

    def __init__(self):
        self.sections = {s: dict(v) for s, v in _DEFAULTS.items()}

    def load_file(self, path):
        parser = configparser.ConfigParser(interpolation=None,
                                           inline_comment_prefixes=(";", "#"))
        read = parser.read(path)
        if not read:
            raise ConfigError(f"config file {path!r} not found")
        for section in parser.sections():
            if section not in _SCHEMA:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in parser.items(section):
                self.set(section, key, raw)

    def set(self, section, key, raw):
        if section not in _SCHEMA or key not in _SCHEMA[section]:
            raise ConfigError(f"unknown config key {section}.{key}")
        caster = _SCHEMA[section][key]
        try:
            value = caster(raw) if isinstance(raw, str) else raw
        except ValueError as exc:
            raise ConfigError(f"bad value for {section}.{key}: {exc}") from None
        self.sections[section][key] = value

    def __getitem__(self, section):
        return self.sections[section]

    def validate(self):
        run, backend, geo = self["run"], self["backend"], self["geodesic"]
        lens, cert = self["lens"], self["certify"]
        checks = [
            (run["seed"] >= 0, "run.seed must be nonnegative"),
            (backend["kind"] in ("minkowski", "punctured", "causet", "sprinkle"),
             "backend.kind must be minkowski|punctured|causet|sprinkle"),
            (backend["spatial_dimension"] >= 1, "backend.spatial_dimension must be >= 1"),
            (backend["window_t"][0] < backend["window_t"][1],
             "backend.window_t must be an increasing pair"),
            (backend["window_radius"] > 0, "backend.window_radius must be positive"),
            (backend["density"] > 0, "backend.density must be positive"),
            (self["time_function"]["kind"] in ("coordinate", "cubic"),
             "time_function.kind must be coordinate|cubic"),
            (0 < geo["c"] <= 0.5, "geodesic.c must lie in (0, 1/2]"),
            (geo["epsilon"] >= 0, "geodesic.epsilon must be nonnegative"),
            (geo["epsilon_hat"] >= 0, "geodesic.epsilon_hat must be nonnegative"),
            (1 <= geo["depth"] <= MAX_DEPTH, f"geodesic.depth must lie in [1, {MAX_DEPTH}]"),
            (geo["mode"] in ("exact", "approximate"),
             "geodesic.mode must be exact|approximate"),
            (self["nulldist"]["method"] in ("auto", "graph", "zigzag"),
             "nulldist.method must be auto|graph|zigzag"),
            (0 < lens["c"] <= 0.5, "lens.c must lie in (0, 1/2]"),
            (lens["resolution"] >= 8, "lens.resolution must be >= 8"),
            (lens["epsilon"] == "auto" or lens["epsilon"] >= 0,
             "lens.epsilon must be 'auto' or nonnegative"),
            (cert["sample_budget"] > 0, "certify.sample_budget must be positive"),
            (cert["tolerance"] > 0, "certify.tolerance must be positive"),
            (0 < cert["c"] <= 0.5, "certify.c must lie in (0, 1/2]"),
            (cert["epsilon_hat"] >= 0, "certify.epsilon_hat must be nonnegative"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)

    def as_dict(self):
        from .core import jsonable
        return {s: jsonable(v) for s, v in self.sections.items()}


def build_space(config: RunConfig):
    backend = config["backend"]
    window = (backend["window_t"], backend["window_radius"])
    kind = backend["kind"]
    if kind == "minkowski":
        return MinkowskiSpace(backend["spatial_dimension"], window)
    if kind == "punctured":
        return PuncturedMinkowski(backend["spatial_dimension"], backend["removed"], window)
    if kind == "causet":
        if backend["causet_json"]:
            return load_causet_json(backend["causet_json"])
        if backend["vertices_csv"] and backend["edges_csv"]:
            return load_causet_csv(backend["vertices_csv"], backend["edges_csv"])
        raise ConfigError("causet backend needs causet_json or vertices_csv+edges_csv")
    if kind == "sprinkle":
        return sprinkle_causet(backend["corners"], backend["density"],
                               config["run"]["seed"])
    raise ConfigError(f"unknown backend kind {kind!r}")


def check_point(space, point, label):
    """Reject endpoints that do not belong to the backend's universe."""
    if space.is_discrete:
        if not space.contains(point):
            raise ConfigError(f"{label} = {point!r} is not a vertex of the causal set")
    else:
        expected = 1 + space.spatial_dimension
        if not isinstance(point, tuple) or len(point) != expected:
            raise ConfigError(f"{label} = {point!r} is not a {expected}-coordinate point")
        if not space.contains(point):
            raise ConfigError(f"{label} = {point!r} was removed from the universe")
    return point


def build_bundle(config: RunConfig, space):
    kind = config["time_function"]["kind"]
    if space.is_discrete:
        if kind != "coordinate":
            raise ConfigError("causal-set backends only carry their stored time values")
        return causet_time_bundle(space)
    if kind == "coordinate":
        return canonical_time_bundle(space)
    return cubic_time_bundle(space, config["time_function"]["cubic_half_width"])


# -- output helpers ---------------------------------------------------------------


def write_manifest(config: RunConfig, outdir, command):
    manifest = {
        "command": command,
        "config": config.as_dict(),
        "seed": config["run"]["seed"],
        "versions": {
            "causalgeo": __version__,
            "python": ".".join(map(str, sys.version_info[:3])),
            "numpy": np.__version__,
        },
    }
    atomic_write(os.path.join(outdir, "manifest.json"),
                 json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _summary_table(certs):
    lines = ["certificate                 verdict  samples  tolerance"]
    for name in sorted(certs):
        cert = certs[name]
        lines.append(f"{name:<27} {cert.verdict:<8} {cert.samples_checked:<8} "
                     f"{cert.tolerance:g}")
    return "\n".join(lines) + "\n"


def _write_certs(certs, outdir):
    payload = [certs[name].as_dict() for name in sorted(certs)]
    atomic_write(os.path.join(outdir, "certificates.json"),
                 json.dumps(payload, indent=2, sort_keys=True) + "\n")
    atomic_write(os.path.join(outdir, "summary.txt"), _summary_table(certs))


def _remove_stale(outdir, *names):
    """Delete outputs an earlier run left in ``outdir`` that this run's outcome
    does not write, so every file beside ``manifest.json`` is this run's."""
    for name in names:
        try:
            os.remove(os.path.join(outdir, name))
        except FileNotFoundError:
            pass


def _point_label(point):
    """'t;x[;...]' with shortest round-tripping floats, so labels parse back."""
    if isinstance(point, tuple):
        return ";".join(repr(float(c)) for c in point)
    return str(point)


# -- subcommands -------------------------------------------------------------------


def cmd_geodesic(config: RunConfig) -> int:
    outdir = config["run"]["out"]
    space = build_space(config)
    bundle = build_bundle(config, space)
    geo = config["geodesic"]
    p = check_point(space, geo["p"], "geodesic.p")
    q = check_point(space, geo["q"], "geodesic.q")
    if p != q and not space.causal_le(p, q):
        raise ConfigError(f"geodesic.p = {p!r} does not causally precede "
                          f"geodesic.q = {q!r}")
    epsilon = geo["epsilon"]
    if geo["mode"] == "approximate" and epsilon == 0.0:
        if geo["epsilon_hat"] <= 0:
            raise ConfigError("approximate mode needs epsilon or epsilon_hat")
        epsilon = geo["epsilon_hat"] * float(space.tau(p, q))
    write_manifest(config, outdir, "geodesic")
    try:
        curve, certs = synthesize_geodesic(
            space, bundle, p, q, geo["c"], geo["depth"], geo["mode"], epsilon,
            sample_budget=config["certify"]["sample_budget"],
            seed=config["run"]["seed"])
    except MidpointUnavailable as exc:
        failure = {
            "error": "MidpointUnavailable",
            "level": exc.level,
            "pair": [_point_label(exc.pair[0]), _point_label(exc.pair[1])],
            "detail": exc.detail,
        }
        atomic_write(os.path.join(outdir, "failure.json"),
                     json.dumps(failure, indent=2, sort_keys=True) + "\n")
        _remove_stale(outdir, "curve.json", "certificates.json", "summary.txt")
        print(f"geodesic synthesis failed: {exc}", file=sys.stderr)
        return 1
    atomic_write(os.path.join(outdir, "curve.json"), curve.json_chunks())
    _write_certs(certs, outdir)
    _remove_stale(outdir, "failure.json")
    ok = all(cert.passed for cert in certs.values())
    print(_summary_table(certs), end="")
    return 0 if ok else 1


def cmd_nulldist(config: RunConfig) -> int:
    outdir = config["run"]["out"]
    space = build_space(config)
    bundle = build_bundle(config, space)
    section = config["nulldist"]
    if not section["pairs_file"]:
        raise ConfigError("nulldist needs nulldist.pairs_file (CSV with header src,dst)")
    with open(section["pairs_file"], newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["src", "dst"]:
            raise ConfigError('pairs file header must be exactly "src,dst"')
        pairs = [(_parse_point(row[0]), _parse_point(row[1])) for row in reader if row]
    for a, b in pairs:
        check_point(space, a, "src")
        check_point(space, b, "dst")
    write_manifest(config, outdir, "nulldist")
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["src", "dst", "d_T", "method"])
    for a, b in pairs:
        try:
            result = null_distance(space, bundle, a, b, method=section["method"])
            writer.writerow([_point_label(a), _point_label(b),
                             repr(float(result.value)), result.method])
        except NotConnected:
            writer.writerow([_point_label(a), _point_label(b), "inf", section["method"]])
    atomic_write(os.path.join(outdir, "distances.csv"), buf.getvalue())
    return 0


def cmd_lens(config: RunConfig) -> int:
    outdir = config["run"]["out"]
    space = build_space(config)
    if space.is_discrete or space.spatial_dimension != 1:
        raise UnsupportedBackend("the lens figure needs the R^{1,1} backend")
    bundle = build_bundle(config, space)
    section = config["lens"]
    p = check_point(space, section["p"], "lens.p")
    q = check_point(space, section["q"], "lens.q")
    epsilon = section["epsilon"]
    if epsilon == "auto":
        epsilon = lens_in_strip_epsilon(space, bundle, p, q, section["c"],
                                        seed=config["run"]["seed"])
    lens = LensStrip(space, bundle, p, q, epsilon, section["c"])
    write_manifest(config, outdir, "lens")
    atomic_write(os.path.join(outdir, "lens.svg"),
                 lens_figure_svg(lens, section["resolution"]))
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["curve_id", "t", "x"])
    for curve_id, t, x in lens_boundary_rows(lens, section["resolution"]):
        writer.writerow([curve_id, f"{t:.9f}", f"{x:.9f}"])
    atomic_write(os.path.join(outdir, "boundary.csv"), buf.getvalue())
    print(f"lens epsilon = {epsilon:.9f}")
    return 0


def cmd_certify(config: RunConfig) -> int:
    outdir = config["run"]["out"]
    space = build_space(config)
    bundle = build_bundle(config, space)
    section = config["certify"]
    budget = section["sample_budget"]
    seed = config["run"]["seed"]
    tol = section["tolerance"] if not space.is_discrete else None
    certs = {
        "chronology": check_chronology(space, budget, seed, tol),
        "reverse_triangle": check_reverse_triangle(space, budget, seed, tol),
        "anti_lipschitz": check_anti_lipschitz(space, bundle, budget, seed, tol),
        "metric_axioms": check_metric_axioms(space, bundle, budget, seed, tol),
        "compatibility": certify_compatibility(space, bundle, section["c"],
                                               section["epsilon_hat"], budget, seed, tol),
    }
    if bundle.canonical_minkowski:
        certs["analytic_fast_path"] = validate_analytic_fast_path(space, bundle,
                                                                  budget, seed)
    write_manifest(config, outdir, "certify")
    _write_certs(certs, outdir)
    print(_summary_table(certs), end="")
    return 0 if all(cert.passed for cert in certs.values()) else 1


def cmd_causet(config: RunConfig) -> int:
    outdir = config["run"]["out"]
    space = build_space(config)
    if not space.is_discrete:
        raise ConfigError("causet command needs a causet or sprinkle backend")
    write_manifest(config, outdir, "causet")
    save_causet_json(space, os.path.join(outdir, "causet.json"))
    save_causet_csv(space, os.path.join(outdir, "vertices.csv"),
                    os.path.join(outdir, "edges.csv"))
    print(f"saved causal set: {len(space.vertices)} vertices, {len(space.edges)} edges")
    return 0


# -- entry point --------------------------------------------------------------------


# Flag -> (config section, key, argparse options).  Every subcommand takes
# --config and the common flags; geodesic and nulldist add the flags of their
# own sections, so a flag is only accepted where its key is read.
_FLAGS = {
    "seed": ("run", "seed", {"type": int, "help": "RNG seed recorded in every certificate"}),
    "out": ("run", "out", {"help": "output directory"}),
    "backend": ("backend", "kind", {"choices": ["minkowski", "punctured", "causet", "sprinkle"],
                                    "help": "backend kind"}),
    "density": ("backend", "density", {"type": float, "help": "sprinkle density"}),
    "depth": ("geodesic", "depth", {"type": int, "help": "dyadic refinement depth"}),
    "c": ("geodesic", "c", {"type": float, "help": "compatibility constant in (0, 1/2]"}),
    "epsilon": ("geodesic", "epsilon", {"type": float, "help": "absolute midpoint tolerance"}),
    "epsilon_hat": ("geodesic", "epsilon_hat", {"type": float,
                                                "help": "relative midpoint tolerance"}),
    "mode": ("geodesic", "mode", {"choices": ["exact", "approximate"], "help": "synthesis mode"}),
    "method": ("nulldist", "method", {"choices": ["auto", "graph", "zigzag"],
                                      "help": "null-distance method"}),
    "pairs": ("nulldist", "pairs_file", {"help": "CSV pair list for the nulldist command"}),
}
_COMMON_FLAGS = ("seed", "out", "backend", "density")
_COMMANDS = {
    "geodesic": (cmd_geodesic, ("depth", "c", "epsilon", "epsilon_hat", "mode")),
    "nulldist": (cmd_nulldist, ("method", "pairs")),
    "lens": (cmd_lens, ()),
    "certify": (cmd_certify, ()),
    "causet": (cmd_causet, ()),
}


def _build_parser():
    # allow_abbrev=False: argparse would otherwise read "certify --c" as --config.
    parser = argparse.ArgumentParser(
        prog="causalgeo", allow_abbrev=False,
        description="Null distances, tau-midpoints and dyadic geodesic synthesis "
                    "on causal-space backends.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (fn, own_flags) in _COMMANDS.items():
        sub = subs.add_parser(name, allow_abbrev=False)
        sub.add_argument("--config", help="INI run configuration file")
        for flag in _COMMON_FLAGS + own_flags:
            sub.add_argument("--" + flag.replace("_", "-"), dest=flag, **_FLAGS[flag][2])
        sub.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    config = RunConfig()
    try:
        if args.config:
            config.load_file(args.config)
        for flag, (section, key, _) in _FLAGS.items():
            value = getattr(args, flag, None)
            if value is not None:
                config.sections[section][key] = value
        config.validate()
        return args.func(config)
    except (ConfigError, UnsupportedBackend, DegenerateStrip) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CausalGeoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
