"""Command-line entry point: meshes, solves, and refinement studies driven by
an INI-style config file with strict key checking.

Exit codes: 0 success, 1 runtime failure, 2 configuration error (every config
fault, named by its key, or by its flag for ``esfem mesh``), 3 acceptance
failure (``maxreg --check`` or ``inequalities --check``).  The output
directory from the config can be overridden with ``--out`` or the
ESFEM_OUTDIR environment variable.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
from dataclasses import asdict

from . import __version__
from .errors import (BudgetExceeded, ConfigError, EsfemError, HTooLarge, IOFailure,
                     MeshMismatch, RichardsonFailure, UnsupportedSurface)
from .fem import FeSpace, discrete_delta
from .greens import (
    MIN_FIT_SAMPLES,
    _check_kernel_pair,
    delta_consistency,
    delta_decay_fit,
    discrete_green,
    dyadic_report,
    green_decay_study,
    kernel_difference_l1,
)
from .studies import (
    StudyConfig,
    build_level_mesh,
    config_hash,
    convergence_study,
    emit_reports,
    inequality_suite,
    maxreg_study,
    study_forcing,
    write_mesh_text,
    write_mesh_vtk,
    write_table,
)
from .surfaces import exact_heat_solution
from .timestepping import FIELDS, TimeGrid, norm_series, solve_heat


def _tuple_of(cast):
    return lambda raw: tuple(cast(v) for v in raw.split(",") if v.strip())


def _pq(raw):
    pairs = []
    for part in raw.split(","):
        p, q = part.split(":")
        pairs.append((float(p), float(q)))
    return tuple(pairs)


def _boolean(raw):
    # configparser's boolean words; anything else is a bad value
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError(raw) from None


# (section, key) -> (StudyConfig field or extras key, cast of the raw value)
_KEYS = {
    ("surface", "kind"): ("surface_kind", str),
    ("surface", "dimension"): ("dimension", int),
    ("surface", "params"): ("surface_params", _tuple_of(float)),
    ("study", "scheme"): ("scheme", str),
    ("study", "degree"): ("degree", int),
    ("study", "levels"): ("levels", _tuple_of(int)),
    ("study", "pq"): ("pq_pairs", _pq),
    ("study", "profile"): ("profile", str),
    ("study", "mode"): ("mode", int),
    ("study", "dt_factor"): ("dt_factor", float),
    ("study", "richardson_rtol"): ("richardson_rtol", float),
    ("study", "seed"): ("seed", int),
    ("solver", "cg_tol"): ("cg_tol", float),
    ("study", "kernel_difference"): ("kernel_difference", _boolean),
    ("study", "c_star"): ("c_star", float),
    ("study", "t_end"): ("t_end", float),
    ("output", "directory"): ("directory", str),
}

_SCHEMA = {section: {key for s, key in _KEYS if s == section} for section, _ in _KEYS}

# values read outside StudyConfig when unset (t_end None: greens runs to 3, solve to 1)
_EXTRAS = {"directory": "out", "kernel_difference": False, "c_star": 16.0, "t_end": None}

_REQUIRED = [("surface", "kind")]


def parse_config(path):
    """Read and validate the INI config; unknown sections or keys reject."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"{section} (unknown section)")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{section}.{key} (unknown key)")
    for section, key in _REQUIRED:
        if not parser.has_option(section, key):
            raise ConfigError(f"{section}.{key}")

    values = {}
    for (section, key), (name, cast) in _KEYS.items():
        if parser.has_option(section, key):
            raw = parser.get(section, key)
            try:
                values[name] = cast(raw)
            except ValueError as exc:
                raise ConfigError(f"{section}.{key} (bad value {raw!r})") from exc
    extras = {name: values.pop(name, default) for name, default in _EXTRAS.items()}
    for key in ("c_star", "t_end"):
        if extras[key] is not None and not 0.0 < extras[key] < math.inf:
            raise ConfigError(f"study.{key} (must be positive and finite, got {extras[key]})")
    config = StudyConfig(**values)
    config.validate()
    if extras["kernel_difference"]:
        _require_radial(config, "study.kernel_difference")
    return config, extras


def _require_radial(config, what):
    # the inverse lift by ray casting and the geodesic distance exist for
    # the radially projecting kinds only
    if not hasattr(config.surface(), "radius"):
        raise ConfigError(
            f"surface.kind ({what} needs circle, sphere or scaled_sphere_flow, "
            f"got {config.surface_kind!r})")


def _make_outdir(outdir):
    # created before any work, so a bad --out fails before the study runs
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise IOFailure(str(exc)) from exc
    return outdir


def _study_setup(args, check=None):
    """The parsed config, its extras, and the created output directory;
    ConfigError before the directory is made if ``check(config, extras)``,
    what the command alone needs of its config, raises it."""
    config, extras = parse_config(args.config)
    if check is not None:
        check(config, extras)
    return config, extras, _outdir(args, extras["directory"])


def _outdir(args, default):
    # --out, then ESFEM_OUTDIR, then the config's or the command's default
    return _make_outdir(args.out or os.environ.get("ESFEM_OUTDIR") or default)


def _greens_meshes(config, t_end, kernel_difference):
    """The mesh and the time grid on [0, t_end] of every level.  ConfigError
    when a level's grid has too few nodes in the fit window [1, t_end], and,
    with the kernel difference, when there are fewer than two levels or the
    first and last level's meshes are no pair for it."""
    if kernel_difference and len(config.levels) < 2:
        raise ConfigError(
            f"study.levels (kernel_difference compares the first and the last "
            f"level and needs two, got {len(config.levels)})")
    surface = config.surface()
    meshes = {}
    for level in config.levels:
        mesh = build_level_mesh(surface, level, config.degree)
        grid = TimeGrid.from_mesh(mesh, t_end=t_end, factor=config.dt_factor)
        meshes[level] = mesh, grid
        count = int((grid.times() >= 1.0).sum())
        if count < MIN_FIT_SAMPLES:
            raise ConfigError(
                f"study.t_end (greens fits the decay on [1, t_end], where level {level} "
                f"has {count} time nodes and the fit needs {MIN_FIT_SAMPLES}, "
                f"got t_end = {t_end})")
    if kernel_difference:
        (coarse, _), (fine, _) = meshes[config.levels[0]], meshes[config.levels[-1]]
        try:
            _check_kernel_pair(coarse, fine)
        except (MeshMismatch, BudgetExceeded) as exc:
            raise ConfigError(
                f"study.levels (kernel_difference between levels {config.levels[0]} "
                f"and {config.levels[-1]}: {exc})") from exc
    return meshes


def _write_manifest(outdir, name, parameters, outputs):
    """Write ``<name>_manifest.json``: the parameters, their config_hash and
    the names of the output files."""
    manifest = {
        "artifact": "esfem",
        "version": __version__,
        "config_hash": config_hash(parameters),
        "parameters": parameters,
        "outputs": sorted(outputs),
    }
    text = json.dumps(manifest, indent=2, sort_keys=True, default=list)
    return write_table(os.path.join(outdir, f"{name}_manifest.json"), (), [[text]])


# the flag that sets each config key the mesh command's ConfigError may name
_MESH_FLAGS = {"surface.kind": "--surface", "surface.dimension": "--dimension",
               "surface.params": "--params", "study.degree": "--degree",
               "study.levels": "--levels"}


def cmd_mesh(args):
    # the flags pass the rules a study config passes, before any output
    try:
        config = StudyConfig(surface_kind=args.surface, dimension=args.dimension,
                             surface_params=args.params or (),
                             degree=args.degree, levels=(args.levels,)).validate()
    except ConfigError as exc:
        key, _, reason = str(exc).partition(" ")
        raise ConfigError(f"{_MESH_FLAGS.get(key, key)} {reason}") from exc
    if not 0.0 <= args.time < math.inf:
        raise ConfigError(f"--time (must be >= 0 and finite, got {args.time})")
    mesh = build_level_mesh(config.surface(), args.levels, args.degree)
    if args.time:
        mesh = mesh.evolved(args.time)
    outdir = _outdir(args, "out")
    base = f"{args.surface}_l{args.levels}_k{args.degree}"
    outputs = []
    if args.format in ("vtk", "both"):
        write_mesh_vtk(mesh, os.path.join(outdir, base + ".vtk"))
        outputs.append(base + ".vtk")
    if args.format in ("text", "both"):
        write_mesh_text(mesh, os.path.join(outdir, base + ".txt"))
        outputs.append(base + ".txt")
    parameters = {k: v for k, v in vars(args).items() if k not in ("func", "out")}
    parameters["dimension"] = config.dimension
    _write_manifest(outdir, base, parameters, outputs)
    print(f"wrote {len(outputs)} file(s) to {outdir} "
          f"({mesh.num_elements} cells, {mesh.num_nodes} nodes)")
    return 0


def cmd_solve(args):
    config, extras, outdir = _study_setup(args)
    surface = config.surface()
    forcing = study_forcing(config, surface)
    t_end = 1.0 if extras["t_end"] is None else extras["t_end"]
    outputs = []
    for level in config.levels:
        mesh = build_level_mesh(surface, level, config.degree)
        grid = TimeGrid.from_mesh(mesh, t_end=t_end, factor=config.dt_factor)
        times, norms = norm_series(
            solve_heat(mesh, forcing, grid, scheme=config.scheme, cg_tol=config.cg_tol),
            [(field, 2.0) for field in FIELDS])
        name = f"solve_level{level}.csv"
        write_table(os.path.join(outdir, name),
                    ("t", "norm_u", "norm_dtu", "norm_lapu", "norm_f"),
                    zip(times, *(norms[(field, 2.0)] for field in FIELDS)))
        outputs.append(name)
    parameters = asdict(config)
    if extras["t_end"] is not None:
        parameters["t_end"] = t_end
    _write_manifest(outdir, "solve", parameters, outputs)
    print(f"wrote {len(outputs)} trajectory file(s) to {outdir}")
    return 0


def cmd_maxreg(args):
    config, extras, outdir = _study_setup(args)
    try:
        report, failure = maxreg_study(config), None
    except RichardsonFailure as exc:
        # the table of every row stays on disk as the failed check's evidence
        report, failure = exc.report, exc
    outputs = emit_reports(report, outdir)
    _write_manifest(outdir, "maxreg", asdict(config),
                    [os.path.basename(p) for p in outputs])
    if failure is not None:
        raise failure
    failures = [key for key, v in report.uniformity.items() if not v["uniform"]]
    print(f"maxreg study: {len(report.rows)} rows, "
          f"{len(report.uniformity) - len(failures)}/{len(report.uniformity)} "
          "pairs h-uniform")
    if args.check and failures:
        print(f"acceptance failure: non-uniform pairs {failures}")
        return 3
    return 0


def _check_convergence(config, extras):
    if len(config.levels) < 2:
        raise ConfigError(f"study.levels (the convergence order is fitted through "
                          f"two levels or more, got {len(config.levels)})")
    try:
        exact_heat_solution(config.surface(), config.mode)
    except UnsupportedSurface as exc:
        raise ConfigError(f"surface.kind (convergence needs an exact solution: {exc}, "
                          f"got {config.surface_kind!r})") from exc


def cmd_convergence(args):
    config, extras, outdir = _study_setup(args, check=_check_convergence)
    rows, order = convergence_study(config)
    write_table(os.path.join(outdir, "convergence.csv"), ("level", "h", "dt", "error"), rows)
    write_table(os.path.join(outdir, "convergence_summary.txt"), (),
                [["observed_order", order]], sep=" ")
    _write_manifest(outdir, "convergence", asdict(config),
                    ["convergence.csv", "convergence_summary.txt"])
    print(f"convergence study: observed order {order:.3f}")
    return 0


def cmd_greens(args):
    config, extras = parse_config(args.config)
    t_end = 3.0 if extras["t_end"] is None else extras["t_end"]
    meshes = _greens_meshes(config, t_end, extras["kernel_difference"])
    outdir = _outdir(args, extras["directory"])
    outputs = []
    rates = []
    for level, (mesh, grid) in meshes.items():
        fit = green_decay_study(mesh, grid, cg_tol=config.cg_tol)
        rates.append(fit.rate)
        name = f"greens_decay_level{level}.csv"
        write_table(os.path.join(outdir, name), ("t", "envelope"),
                    zip(fit.times, fit.values))
        outputs.append(name)
        # dyadic table around the first mesh node, on (0,1); only available
        # once the mesh satisfies h < 1/(4*C), and on kinds with a geodesic
        # distance
        try:
            # diagnostic table: cap the step count, the annulus profile does
            # not need the full parabolic dt resolution
            policy = TimeGrid.from_mesh(mesh, t_end=1.0, factor=config.dt_factor)
            unit_grid = TimeGrid(1.0, min(policy.n_steps, 1000))
            x0 = mesh.nodes[0]
            nodes = discrete_green(mesh, x0, unit_grid, cg_tol=config.cg_tol)
            table = dyadic_report(mesh, nodes, x0, c_star=extras["c_star"])
        except (HTooLarge, UnsupportedSurface) as exc:
            print(f"level {level}: dyadic table skipped ({exc})")
            continue
        columns = ("set", "radius", "measure", "field_l2", "dtfield_l2")
        name = f"greens_dyadic_level{level}.csv"
        write_table(os.path.join(outdir, name), columns,
                    ([row[c] for c in columns] for row in table["rows"]))
        outputs.append(name)
    write_table(os.path.join(outdir, "greens_summary.txt"), (),
                (["level", level, "decay_rate", rate]
                 for level, rate in zip(config.levels, rates)), sep=" ")
    outputs.append("greens_summary.txt")
    if extras["kernel_difference"]:
        (coarse, _), (fine, _) = meshes[config.levels[0]], meshes[config.levels[-1]]
        grid = TimeGrid.from_mesh(fine, t_end=1.0, factor=config.dt_factor)
        result = kernel_difference_l1(coarse, fine, coarse.nodes[0], grid,
                                      cg_tol=max(config.cg_tol, 1e-11))
        write_table(os.path.join(outdir, "greens_kernel_difference.txt"), (),
                    sorted(result.items()), sep=" ")
        outputs.append("greens_kernel_difference.txt")
    parameters = asdict(config) | {
        "kernel_difference": extras["kernel_difference"],
        "c_star": extras["c_star"], "t_end": t_end}
    _write_manifest(outdir, "greens", parameters, outputs)
    print(f"greens diagnostics: decay rates {[f'{r:.4f}' for r in rates]}")
    return 0


def cmd_delta(args):
    config, extras, outdir = _study_setup(
        args, check=lambda config, _: _require_radial(config, "delta"))
    surface = config.surface()
    rows = []
    for level in config.levels:
        mesh = build_level_mesh(surface, level, config.degree)
        x0 = mesh.nodes[0]
        delta = discrete_delta(FeSpace(mesh), x0, config.cg_tol)
        fit = delta_decay_fit(mesh, x0, delta)
        cons = delta_consistency(mesh, x0, delta, config.cg_tol)
        rows.append([level, mesh.h, fit["slope"], fit["r_squared"],
                     fit["decay_length"], cons[1]["ratio"], cons[2]["ratio"]])
    path = write_table(
        os.path.join(outdir, "delta_report.csv"),
        ("level", "h", "slope", "r_squared", "decay_length", "consistency_l1",
         "consistency_l2"),
        rows,
    )
    _write_manifest(outdir, "delta", asdict(config), ["delta_report.csv"])
    print(f"delta diagnostics written to {path}")
    return 0


def cmd_inequalities(args):
    config, extras, outdir = _study_setup(args)
    result = inequality_suite(config)
    write_table(os.path.join(outdir, "inequalities.txt"), (),
                (["PASS" if ok else "FAIL", name]
                 for name, ok in sorted(result["stable"].items())), sep=" ")
    _write_manifest(outdir, "inequalities", asdict(config), ["inequalities.txt"])
    print(f"inequality suite: all_stable={result['all_stable']}")
    return 0 if result["all_stable"] or not args.check else 3


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="esfem",
        description="surface finite element studies on stationary and "
                    "evolving closed surfaces",
        epilog="The output directory can be overridden with --out or the "
               "ESFEM_OUTDIR environment variable.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_mesh = sub.add_parser("mesh", help="build and export a mesh")
    p_mesh.add_argument("--surface", required=True)
    p_mesh.add_argument("--dimension", type=int, default=None)
    p_mesh.add_argument("--params", type=lambda s: tuple(float(v) for v in s.split(",")),
                        default=None)
    p_mesh.add_argument("--levels", type=int, required=True,
                        help="element count (curves) or subdivision level (spheres)")
    p_mesh.add_argument("--degree", type=int, default=1)
    p_mesh.add_argument("--time", type=float, default=0.0)
    p_mesh.add_argument("--format", choices=("vtk", "text", "both"), default="vtk")
    p_mesh.add_argument("--out", default=None)
    p_mesh.set_defaults(func=cmd_mesh)

    for name, func, help_text in (
        ("solve", cmd_solve, "time-step one scheme and dump norm trajectories"),
        ("maxreg", cmd_maxreg,
         "bounded-ratio refinement study; the default levels are 32,64,128,256 "
         "elements on a curve and subdivision levels 3,4 on a surface, where "
         "levels below 3 fail the dt-halving check at the default "
         "richardson_rtol = 0.01"),
        ("convergence", cmd_convergence, "error convergence study"),
        ("greens", cmd_greens, "kernel decay and dyadic reports"),
        ("delta", cmd_delta, "point-source decay and consistency reports"),
        ("inequalities", cmd_inequalities, "fitted-constant inequality suite"),
    ):
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        if name in ("maxreg", "inequalities"):
            p.add_argument("--check", action="store_true",
                           help="exit 3 when an acceptance criterion fails")
        p.set_defaults(func=func)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"ConfigError: {exc}", file=sys.stderr)
        return 2
    except EsfemError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
