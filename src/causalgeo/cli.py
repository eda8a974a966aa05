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
construction hypothesis broke, 2 usage or configuration error.  Exit 2 writes
nothing; any other error writes ``failure.json`` (error class and detail) in
place of the command's outputs.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys

import numpy as np

from . import __version__
from .core import (atomic_write, check_anti_lipschitz, check_chronology,
                   check_reverse_triangle, csv_rows, csv_text, json_text)
from .errors import (BudgetExceeded, CausalGeoError, ConfigError, DegenerateStrip,
                     MidpointUnavailable, NotConnected, UnsupportedBackend)
from .figures import lens_boundary_rows, lens_figure_svg
from .geodesic import MAX_DEPTH, synthesize_geodesic
from .midpoints import LensStrip, certify_compatibility, lens_in_strip_epsilon
from .nulldist import check_metric_axioms, null_distance
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


# Section -> key -> (parser of the key's text, default value).
_SCHEMA = {
    "run": {"seed": (int, 42), "out": (str, "out")},
    "backend": {
        "kind": (str, "minkowski"), "spatial_dimension": (int, 1),
        "window_t": (_parse_pair_of_floats, (-3.0, 3.0)), "window_radius": (float, 3.0),
        "removed": (_parse_point_list, ()), "causet_json": (str, ""),
        "vertices_csv": (str, ""), "edges_csv": (str, ""),
        "corners": (_parse_point_list, ((0.0, 0.0), (1.0, 0.0))), "density": (float, 100.0),
    },
    "time_function": {"kind": (str, "coordinate"), "cubic_half_width": (float, 0.5)},
    "geodesic": {
        "p": (_parse_point, (0.0, 0.0)), "q": (_parse_point, (2.0, 0.0)), "c": (float, 0.5),
        "epsilon": (float, 0.0), "epsilon_hat": (float, 0.0), "depth": (int, 10),
        "mode": (str, "exact"),
    },
    "nulldist": {"pairs_file": (str, "")},
    "lens": {"p": (_parse_point, (0.0, 0.0)), "q": (_parse_point, (4.0, 0.0)),
             "epsilon": (_parse_eps, "auto"), "c": (float, 0.4), "resolution": (int, 200)},
    "certify": {"sample_budget": (int, 200), "tolerance": (float, 1e-9), "c": (float, 0.5),
                "epsilon_hat": (float, 0.0)},
}


class RunConfig:
    """Strictly-validated run configuration (defaults, file, then flags)."""

    def __init__(self):
        self.sections = {section: {key: default for key, (_, default) in keys.items()}
                         for section, keys in _SCHEMA.items()}

    def load_file(self, path):
        parser = configparser.ConfigParser(interpolation=None,
                                           inline_comment_prefixes=(";", "#"))
        try:
            read = parser.read(path)
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config file {path!r}: {exc}") from None
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
        caster = _SCHEMA[section][key][0]
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
            (geo["mode"] == "approximate" or geo["epsilon"] == geo["epsilon_hat"] == 0,
             "geodesic.epsilon and geodesic.epsilon_hat are for mode = approximate only"),
            (geo["mode"] == "exact" or (geo["epsilon"] > 0) != (geo["epsilon_hat"] > 0),
             "mode = approximate needs exactly one of geodesic.epsilon and "
             "geodesic.epsilon_hat"),
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
        for point in backend["removed"]:
            _check_coordinates(point, backend["spatial_dimension"], "backend.removed entry")
        return PuncturedMinkowski(backend["spatial_dimension"], backend["removed"], window)
    if kind == "causet":
        json_path, csv_paths = backend["causet_json"], (backend["vertices_csv"],
                                                         backend["edges_csv"])
        if not (json_path or all(csv_paths)):
            raise ConfigError("causet backend needs causet_json or vertices_csv+edges_csv")
        try:
            return load_causet_json(json_path) if json_path else load_causet_csv(*csv_paths)
        except (OSError, LookupError, TypeError, ValueError) as exc:
            source = json_path or " and ".join(csv_paths)
            raise ConfigError(f"cannot load the causal set from {source}: "
                              f"{type(exc).__name__}: {exc}") from exc
    if kind == "sprinkle":
        try:
            return sprinkle_causet(backend["corners"], backend["density"],
                                   config["run"]["seed"])
        except ValueError as exc:
            raise ConfigError(f"bad backend.corners = {backend['corners']!r}: {exc}") from exc
        except BudgetExceeded as exc:
            raise ConfigError(f"backend.density = {backend['density']:g} is too large: "
                              f"{exc}") from exc
    raise ConfigError(f"unknown backend kind {kind!r}")


def check_point(space, point, label):
    """Reject endpoints that do not belong to the backend's universe."""
    if space.is_discrete:
        if not space.contains(point):
            raise ConfigError(f"{label} = {point!r} is not a vertex of the causal set")
    else:
        _check_coordinates(point, space.spatial_dimension, label)
        if not space.contains(point):
            raise ConfigError(f"{label} = {point!r} was removed from the universe")
    return point


def _check_coordinates(point, spatial_dimension, label):
    expected = 1 + spatial_dimension
    if not isinstance(point, tuple) or len(point) != expected:
        raise ConfigError(f"{label} = {point!r} is not a {expected}-coordinate point")


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
    atomic_write(os.path.join(outdir, "manifest.json"), json_text(manifest))


def _report(certs, outdir):
    """Write ``certificates.json`` and ``summary.txt``, print the summary and
    return the exit code: 0 when every certificate passes, else 1."""
    lines = ["certificate                 verdict  samples  tolerance"]
    for name in sorted(certs):
        cert = certs[name]
        lines.append(f"{name:<27} {cert.verdict:<8} {cert.samples_checked:<8} "
                     f"{cert.tolerance:g}")
    summary = "\n".join(lines) + "\n"
    payload = [certs[name].as_dict() for name in sorted(certs)]
    atomic_write(os.path.join(outdir, "certificates.json"), json_text(payload))
    atomic_write(os.path.join(outdir, "summary.txt"), summary)
    print(summary, end="")
    return 0 if all(cert.passed for cert in certs.values()) else 1


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


def cmd_geodesic(config: RunConfig, space) -> int:
    outdir = config["run"]["out"]
    bundle = build_bundle(config, space)
    geo = config["geodesic"]
    p = check_point(space, geo["p"], "geodesic.p")
    q = check_point(space, geo["q"], "geodesic.q")
    if p != q and not space.causal_le(p, q):
        raise ConfigError(f"geodesic.p = {p!r} does not causally precede "
                          f"geodesic.q = {q!r}")
    epsilon, tau = geo["epsilon"], space.tau(p, q)
    if geo["epsilon_hat"] > 0:
        epsilon = geo["epsilon_hat"] * float(tau)
    if space.chronological(p, q) and epsilon >= tau:
        key = "epsilon_hat" if geo["epsilon_hat"] > 0 else "epsilon"
        raise ConfigError(f"geodesic.{key} = {geo[key]:g} gives epsilon = {epsilon:g}, "
                          f"which must lie below tau(p, q) = {float(tau):g}")
    curve, certs = synthesize_geodesic(
        space, bundle, p, q, geo["c"], geo["depth"], geo["mode"], epsilon,
        sample_budget=config["certify"]["sample_budget"], seed=config["run"]["seed"])
    atomic_write(os.path.join(outdir, "curve.json"), curve.json_chunks())
    return _report(certs, outdir)


def cmd_nulldist(config: RunConfig, space) -> int:
    bundle = build_bundle(config, space)
    section = config["nulldist"]
    if not section["pairs_file"]:
        raise ConfigError("nulldist needs nulldist.pairs_file (CSV with header src,dst)")
    try:
        pairs = [(_parse_point(a), _parse_point(b))
                 for a, b in csv_rows(section["pairs_file"], ["src", "dst"])]
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read nulldist.pairs_file = {section['pairs_file']!r}: "
                          f"{type(exc).__name__}: {exc}") from exc
    for a, b in pairs:
        check_point(space, a, "src")
        check_point(space, b, "dst")

    def row(a, b):
        try:
            result = null_distance(space, bundle, a, b)
            return [_point_label(a), _point_label(b), repr(float(result.value)),
                    result.method]
        except NotConnected:
            # Only the graph route can find no walk.
            return [_point_label(a), _point_label(b), "inf", "graph"]

    atomic_write(os.path.join(config["run"]["out"], "distances.csv"), csv_text(
        ["src", "dst", "d_T", "method"], (row(a, b) for a, b in pairs)))
    return 0


def cmd_lens(config: RunConfig, space) -> int:
    outdir = config["run"]["out"]
    if space.is_discrete or space.spatial_dimension != 1:
        raise UnsupportedBackend("the lens figure needs the R^{1,1} backend")
    bundle = build_bundle(config, space)
    section = config["lens"]
    p = check_point(space, section["p"], "lens.p")
    q = check_point(space, section["q"], "lens.q")
    if not space.chronological(p, q):
        raise ConfigError(f"lens.p = {p!r} does not chronologically precede "
                          f"lens.q = {q!r}")
    epsilon = section["epsilon"]
    if epsilon == "auto":
        epsilon = lens_in_strip_epsilon(space, bundle, p, q, section["c"])
    lens = LensStrip(space, bundle, p, q, epsilon, section["c"])
    if lens.epsilon >= lens.half:
        raise ConfigError(f"lens.epsilon = {epsilon} must be below tau(p,q)/2 = {lens.half}")
    atomic_write(os.path.join(outdir, "lens.svg"),
                 lens_figure_svg(lens, section["resolution"]))
    rows = ([curve_id, f"{t:.9f}", f"{x:.9f}"]
            for curve_id, t, x in lens_boundary_rows(lens, section["resolution"]))
    atomic_write(os.path.join(outdir, "boundary.csv"), csv_text(["curve_id", "t", "x"], rows))
    print(f"lens epsilon = {epsilon:.9f}")
    return 0


def cmd_certify(config: RunConfig, space) -> int:
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
    return _report(certs, config["run"]["out"])


def cmd_causet(config: RunConfig, space) -> int:
    outdir = config["run"]["out"]
    if not space.is_discrete:
        raise ConfigError("causet command needs a causet or sprinkle backend")
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
    "pairs": ("nulldist", "pairs_file", {"help": "CSV pair list for the nulldist command"}),
}
_COMMON_FLAGS = ("seed", "out", "backend", "density")
# Command -> (function, own flags, the outputs it writes beside manifest.json).
_COMMANDS = {
    "geodesic": (cmd_geodesic, ("depth", "c", "epsilon", "epsilon_hat", "mode"),
                 ("curve.json", "certificates.json", "summary.txt")),
    "nulldist": (cmd_nulldist, ("pairs",), ("distances.csv",)),
    "lens": (cmd_lens, (), ("lens.svg", "boundary.csv")),
    "certify": (cmd_certify, (), ("certificates.json", "summary.txt")),
    "causet": (cmd_causet, (), ("causet.json", "vertices.csv", "edges.csv")),
}


def _build_parser():
    # allow_abbrev=False: argparse would otherwise read "certify --c" as --config.
    parser = argparse.ArgumentParser(
        prog="causalgeo", allow_abbrev=False,
        description="Null distances, tau-midpoints and dyadic geodesic synthesis "
                    "on causal-space backends.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, own_flags, _) in _COMMANDS.items():
        sub = subs.add_parser(name, allow_abbrev=False)
        sub.add_argument("--config", help="INI run configuration file")
        for flag in _COMMON_FLAGS + own_flags:
            sub.add_argument("--" + flag.replace("_", "-"), dest=flag, **_FLAGS[flag][2])
    return parser


def main(argv=None) -> int:
    """Run one subcommand; every run but a config error writes its manifest,
    and a toolkit error writes ``failure.json`` in place of the outputs."""
    args = _build_parser().parse_args(argv)
    fn, _, outputs = _COMMANDS[args.command]
    config = RunConfig()
    try:
        if args.config:
            config.load_file(args.config)
        for flag, (section, key, _) in _FLAGS.items():
            value = getattr(args, flag, None)
            if value is not None:
                config.sections[section][key] = value
        config.validate()
        status, stale = fn(config, build_space(config)), ("failure.json",)
    except (ConfigError, UnsupportedBackend, DegenerateStrip) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CausalGeoError as exc:
        failure = {"error": type(exc).__name__, "detail": str(exc)}
        if isinstance(exc, MidpointUnavailable):
            failure.update(level=exc.level, pair=[_point_label(x) for x in exc.pair],
                           detail=exc.detail)
        atomic_write(os.path.join(config["run"]["out"], "failure.json"), json_text(failure))
        print(f"error: {exc}", file=sys.stderr)
        status, stale = 1, outputs
    write_manifest(config, config["run"]["out"], args.command)
    _remove_stale(config["run"]["out"], *stale)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
