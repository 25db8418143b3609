"""Command-line front end.

Verbs: ``calibrate`` (CSV to model), ``moments`` (closed-form table, with an
optional Monte Carlo cross-check), ``sweep`` (strategy/parameter sweeps as
CSV and optional SVG), ``simulate`` (Monte Carlo runs or monthly synthetic
series), ``optimize`` (criterion maximization).

Every invocation that writes files also writes ``manifest.json`` next to
them, recording the resolved configuration, input hashes, the tool version,
and output hashes; re-running the manifest's ``argv`` (plus any ``--out``)
reproduces every output byte for byte.

Exit codes: 0 success, 1 usage, 2 bad input data, 3 numeric failure.
``sweep`` reports per-point optimizer failures as warnings and exits 0
unless given ``--strict``, a flag only ``sweep`` takes; every warning prints
as ``warning: <message>``.  A flag the run would not read (a Monte Carlo
flag on ``moments`` without ``--check`` or on ``simulate --discrete``,
another mode's flag on ``sweep``, ``--strict`` in its mode H) exits 1.
Each JSON document carries the fields of its result record
(:func:`_record`), and all numbers are printed in shortest round-trip form.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .calibration import (
    CalibrationDataError,
    CalibrationNumericError,
    calibrate,
    read_timeseries_csv,
    reference_estimates,
    report_from_estimates,
    timeseries_to_csv,
)
from .criterion import OptimizerConfig, UnboundedCriterionError, optimize, sweep_gamma, sweep_theta
from .linalg import NumericError
from .mc import SimConfig, SimulationError, simulate, simulate_discrete
from .model import (
    CriterionParams,
    FactorModel,
    ModelValidationError,
    Strategy,
    load_model,
    model_to_dict,
)
from .moments import moments

__all__ = ["main"]


class UsageError(Exception):
    """Bad flag combination or value; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors by default; remap to 1 to
    # keep 2 reserved for input-data problems.
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_floats(text: str, what: str):
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise UsageError(f"{what}: expected comma-separated numbers, got {text!r}") from None


def _parse_vector(text: str, length: int, what: str) -> np.ndarray:
    vals = _parse_floats(text, what)
    if len(vals) == 1 and length > 1:
        vals = vals * length
    if len(vals) != length:
        raise UsageError(f"{what}: expected {length} value(s), got {len(vals)}")
    return np.array(vals)


def _parse_matrix(text: str, m: int, n: int, what: str) -> np.ndarray:
    rows = [r for r in text.split(";") if r.strip() != ""]
    if len(rows) == 1:
        vals = _parse_floats(rows[0], what)
        if len(vals) == 1:
            return np.full((m, n), vals[0])
    if len(rows) != m:
        raise UsageError(f"{what}: expected {m} row(s) separated by ';', got {len(rows)}")
    out = np.empty((m, n))
    for i, row in enumerate(rows):
        vals = _parse_floats(row, what)
        if len(vals) != n:
            raise UsageError(f"{what}: row {i + 1} has {len(vals)} value(s), expected {n}")
        out[i] = vals
    return out


def _parse_grid(text: str, log: bool, what: str) -> np.ndarray:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise UsageError(f"{what}: expected lo:hi:count, got {text!r}")
        try:
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise UsageError(f"{what}: expected lo:hi:count, got {text!r}") from None
        if count < 2 or not hi > lo:
            raise UsageError(f"{what}: need lo < hi and count >= 2, got {text!r}")
        if log:
            if lo <= 0:
                raise UsageError(f"{what}: log spacing needs lo > 0, got {lo}")
            return np.geomspace(lo, hi, count)
        return np.linspace(lo, hi, count)
    vals = _parse_floats(text, what)
    if not vals:
        raise UsageError(f"{what}: no values in {text!r}")
    return np.array(vals)


def _fmt(v) -> str:
    return repr(float(v))


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _record(obj, skip=()) -> dict:
    """The fields of a frozen record, in field order, as JSON-ready values."""
    return {f.name: np.asarray(getattr(obj, f.name)).tolist()
            for f in dataclasses.fields(obj) if f.name not in skip}


def _csv(header, columns) -> str:
    """CSV text: the header line, then one row per entry of the equal-length columns."""
    rows = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in zip(*columns)]
    return "\n".join(rows) + "\n"


def _strip_out(argv):
    """``argv`` without ``--out`` and its value."""
    out, tokens = [], iter(argv)
    for tok in tokens:
        if tok == "--out":
            next(tokens, None)
        elif not tok.startswith("--out="):
            out.append(tok)
    return out


def _emit(args, verb: str, files: dict, inputs=()) -> None:
    """Write output files plus the reproducibility manifest."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    hashes = {}
    for name, text in files.items():
        data = text.encode("utf-8")
        (out_dir / name).write_bytes(data)
        hashes[name] = hashlib.sha256(data).hexdigest()
    arguments = {
        k: v for k, v in vars(args).items() if k not in ("func", "out", "raw_argv")
    }
    manifest = {
        "v": 1,
        "tool": "longrun",
        "version": __version__,
        "command": verb,
        "argv": _strip_out(args.raw_argv),
        "arguments": arguments,
        "inputs": {str(p): hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in inputs},
        "outputs": hashes,
    }
    (out_dir / "manifest.json").write_text(_json_text(manifest), encoding="utf-8")


def cmd_calibrate(args) -> int:
    if args.from_tables:
        if args.csv is not None:
            raise UsageError(f"CSV path {args.csv!r} not read with --from-tables")
        report = report_from_estimates(reference_estimates(), persistence_map=args.persistence_map)
        inputs = []
    else:
        if args.csv is None:
            raise UsageError("give a CSV path or --from-tables")
        report = calibrate(read_timeseries_csv(args.csv), persistence_map=args.persistence_map)
        inputs = [args.csv]
    model_doc = model_to_dict(report.model)
    report_doc = {
        "v": 1,
        "model": model_doc,
        "persistence_map": report.persistence_map,
        "unit_conventions": report.unit_conventions,
        "discrete": _record(report.discrete),
    }
    files = {"model.json": _json_text(model_doc), "report.json": _json_text(report_doc)}
    _emit(args, "calibrate", files, inputs)
    print(f"calibrated model written to {Path(args.out) / 'model.json'}")
    return 0


def _strategy_from_flags(model: FactorModel, args) -> Strategy:
    h = _parse_vector(args.h, model.m, "--h")
    H = _parse_matrix(args.H, model.m, model.n, "--H")
    return Strategy(h=h, H=H)


def _reject_unread(args, names, when: str) -> None:
    """Usage error naming each flag in ``names`` whose value is not the parser's default.

    (argv is not searched: it may hold an abbreviation such as ``--pa``.)
    """
    required = [f"--{k}={getattr(args, k)}" for k in ("model", "mode") if hasattr(args, k)]
    default = build_parser().parse_args([args.command, *required])
    given = [f"--{name.replace('_', '-')}" for name in names
             if getattr(args, name) != getattr(default, name)]
    if given:
        raise UsageError(f"{', '.join(given)} not read {when}")


def _criterion(theta, gamma, flags: str) -> CriterionParams:
    """The criterion weights from flags, any value CriterionParams rejects as a usage error."""
    try:
        return CriterionParams(theta=theta, gamma=gamma)
    except ModelValidationError as err:
        raise UsageError(f"{flags}: {err}") from None


def _threads(args) -> int:
    """``--threads``, by default every core this process may run on (no result depends on it)."""
    if args.threads is not None:
        return args.threads
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sim_config(args, **options) -> SimConfig:
    """The Monte Carlo flags as a SimConfig, any value it rejects as a usage error."""
    if _threads(args) < 1:
        raise UsageError(f"--threads must be at least 1, got {args.threads}")
    try:
        cfg = SimConfig(dt=args.dt, horizon=args.horizon, paths=args.paths, seed=args.seed,
                        **options)
    except ValueError as err:
        raise UsageError(str(err)) from None
    if round(cfg.horizon / cfg.dt) < 1:
        raise UsageError(f"--horizon {args.horizon} is shorter than one step of --dt {args.dt}")
    return cfg


def cmd_moments(args) -> int:
    model = load_model(args.model)
    if not args.check:
        _reject_unread(args, ("dt", "horizon", "paths", "threads", "seed"), "without --check")
    strategy = _strategy_from_flags(model, args)
    mom = moments(model, strategy)
    doc = _record(mom)
    for key, value in doc.items():
        print(f"{key} {json.dumps(value)}")
    doc["strategy"] = _record(strategy)

    if args.check:
        cfg = _sim_config(args)
        stats = simulate(model, strategy, cfg, threads=_threads(args))
        T = stats.horizon
        checks = {
            "growth_rate": (mom.growth_rate, stats.mean_u / T, stats.mean_u_se / T,
                            (stats.mean_u - mom.growth_rate * T) / stats.mean_u_se),
            "variance_rate": (mom.variance_rate, stats.var_u / T, stats.var_u_se / T,
                              (stats.var_u - mom.variance_rate * T) / stats.var_u_se),
        }
        for j in range(model.n):
            checks[f"wealth_factor_cov_{j + 1}"] = (
                float(mom.wealth_factor_cov[j]), float(stats.cov_ux[j]),
                float(stats.cov_ux_se[j]),
                float((stats.cov_ux[j] - mom.wealth_factor_cov[j]) / stats.cov_ux_se[j]),
            )
        doc["check"] = {
            name: {"closed_form": c, "monte_carlo": est, "se": se, "z": z}
            for name, (c, est, se, z) in checks.items()
        }
        doc["check_config"] = _record(
            cfg, skip=("factor_scheme", "antithetic", "stationary_start"))
        for name, (c, est, se, z) in checks.items():
            print(f"check {name}: closed={_fmt(c)} mc={_fmt(est)} se={_fmt(se)} z={_fmt(z)}")

    if args.out:
        _emit(args, "moments", {"moments.json": _json_text(doc)}, [args.model])
    return 0


def _strategy_csv(res) -> str:
    """One row per sweep point: the parameter, h*, H* (row-major) and W."""
    k, m, n = res.H_star.shape
    columns = [res.parameter_values, *res.h_star.T, *res.H_star.reshape(k, m * n).T, res.values]
    if m == 1 and n == 1:
        return _csv(["parameter", "h", "H", "W", "ratio"], columns + [res.ratio()])
    header = (["parameter"] + [f"h_{i + 1}" for i in range(m)]
              + [f"H_{i + 1}_{j + 1}" for i in range(m) for j in range(n)] + ["W"])
    return _csv(header, columns)


def cmd_sweep(args) -> int:
    from .svg import line_plot

    model = load_model(args.model)
    unread = {"H": ("theta", "gamma", "strict"), "theta": ("h", "theta"), "gamma": ("h", "gamma")}
    _reject_unread(args, unread[args.mode], f"in sweep mode {args.mode}")
    config = OptimizerConfig(seed=args.seed)
    warn_rows = []

    if args.mode == "H":
        if model.m != 1 or model.n != 1:
            raise CalibrationDataError(
                "sweep mode H needs a one-asset, one-factor model; "
                f"this one has m={model.m}, n={model.n}"
            )
        grid = _parse_grid(args.range or "-3:3:121", args.log, "--range")
        h = _parse_vector(args.h, 1, "--h")
        mom = moments(model, (np.tile(h, (len(grid), 1)), grid.reshape(-1, 1, 1)))
        svg_series = (mom.growth_rate, mom.wealth_factor_cov[:, 0], mom.variance_rate)
        csv_text = _csv(["H", "K", "P", "varRate"], (grid, *svg_series))
        plot = functools.partial(line_plot, grid, svg_series,
                                 labels=("K", "P", "varRate"), title="moments vs H",
                                 xlabel="H", ylabel="value")
    else:
        if args.mode == "theta":
            grid = _parse_grid(args.range or "0.25:64:13", args.log or args.range is None, "--range")
            gamma = _parse_vector(args.gamma, model.n, "--gamma")
            for theta in grid:
                _criterion(theta, gamma, "--range/--gamma")
            res = sweep_theta(model, grid, gamma=gamma, config=config)
            xlabel = "theta"
        else:
            grid = _parse_grid(args.range or "0:0.01:11", args.log, "--range")
            for gamma in grid:
                _criterion(args.theta, gamma, "--theta/--range")
            res = sweep_gamma(model, args.theta, grid, config=config)
            xlabel = "gamma"
        csv_text = _strategy_csv(res)
        for i in np.nonzero(res.failed)[0]:
            warn_rows.append(f"sweep point {xlabel}={_fmt(grid[i])}: {res.messages[i]}")
        for i in np.nonzero(~res.failed & ~res.stationary)[0]:
            warn_rows.append(
                f"sweep point {xlabel}={_fmt(grid[i])}: optimum not stationary "
                f"({res.messages[i]})"
            )
        plot = functools.partial(line_plot, grid, (res.h_star[:, 0], res.H_star[:, 0, 0]),
                                 labels=("h*", "H*"), title=f"optimal strategy vs {xlabel}",
                                 xlabel=xlabel, ylabel="coefficient")

    files = {"sweep.csv": csv_text}
    if args.svg:        # the plot is drawn only when it is written
        files["sweep.svg"] = plot()
    _emit(args, "sweep", files, [args.model])
    for line in warn_rows:
        print(f"warning: {line}", file=sys.stderr)
    if warn_rows and args.strict:
        return 3
    return 0


def cmd_simulate(args) -> int:
    model = load_model(args.model)
    if args.discrete is not None:
        _reject_unread(args, ("h", "H", "dt", "horizon", "paths", "threads", "scheme",
                              "antithetic", "zero_start", "dump_paths"), "with --discrete")
        if args.discrete < 24:
            raise UsageError("--discrete needs at least 24 months")
        if args.out is None:
            args.out = "."
        data = simulate_discrete(model, args.discrete, seed=args.seed)
        files = {"series.csv": timeseries_to_csv(data)}
        _emit(args, "simulate", files, [args.model])
        print(f"synthetic series written to {Path(args.out) / 'series.csv'}")
        return 0

    if args.dump_paths and not args.out:
        raise UsageError("--dump-paths needs --out")
    strategy = _strategy_from_flags(model, args)
    cfg = _sim_config(args, factor_scheme=args.scheme, antithetic=args.antithetic,
                      stationary_start=not args.zero_start)
    stats = simulate(model, strategy, cfg, threads=_threads(args))
    doc = {
        "config": _record(cfg),
        "effective_horizon": stats.horizon,
        **_record(stats, skip=("horizon", "dt", "paths", "final_u", "final_x")),
        "strategy": _record(strategy),
    }
    text = _json_text(doc)
    print(text, end="")
    if args.out:
        files = {"stats.json": text}
        if args.dump_paths:
            lines = ["path,T,u," + ",".join(f"x_{j + 1}" for j in range(model.n))]
            lines += [",".join([str(i), _fmt(stats.horizon), _fmt(u), *map(_fmt, x)])
                      for i, (u, x) in enumerate(zip(stats.final_u, stats.final_x))]
            files["paths.csv"] = "\n".join(lines) + "\n"
        _emit(args, "simulate", files, [args.model])
    return 0


def cmd_optimize(args) -> int:
    model = load_model(args.model)
    gamma = _parse_vector(args.gamma, model.n, "--gamma")
    params = _criterion(args.theta, gamma, "--theta/--gamma")
    try:
        lo, hi = (float(v) for v in args.grid_bounds.split(":"))
    except ValueError:
        raise UsageError(f"--grid-bounds: expected lo:hi, got {args.grid_bounds!r}") from None
    try:
        config = OptimizerConfig(
            grid_bounds=(lo, hi), grid_points=args.grid_points,
            local_restarts=args.restarts, seed=args.seed,
        )
    except ValueError as err:
        raise UsageError(str(err)) from None
    res = optimize(model, params, config)
    doc = {**_record(params), **_record(res.strategy),
           **_record(res, skip=("strategy", "restarts"))}
    text = _json_text(doc)
    print(text, end="")
    if args.out:
        _emit(args, "optimize", {"optimum.json": text}, [args.model])
    return 0


def _add_common(sub, oracle=False):
    sub.add_argument("--model", required=True, help="model JSON path")
    sub.add_argument("--out", help="output directory (writes files + manifest.json)")
    sub.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    if oracle:
        sub.add_argument("--h", default="1", help="constant holdings, comma-separated (default 1)")
        sub.add_argument("--H", default="0", help="factor loadings, rows ';'-separated (default 0)")
        sub.add_argument("--dt", type=float, default=0.1,
                         help="Monte Carlo step in months (default 0.1)")
        sub.add_argument("--horizon", type=float, default=10000.0,
                         help="Monte Carlo horizon in months (default 1e4)")
        sub.add_argument("--paths", type=int, default=10000, help="Monte Carlo paths (default 1e4)")
        sub.add_argument("--threads", type=int,
                         help="worker threads (default: the usable cores); results are "
                              "bit-identical at any count")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(
        prog="longrun",
        description="Long-run moments, criterion optimization, and calibration "
                    "for linear-factor asset dynamics.",
    )
    parser.add_argument("--version", action="version", version=f"longrun {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("calibrate", help="estimate a model from a monthly CSV")
    p.add_argument("csv", nargs="?", help="CSV with columns date,excess_return_1..m,factor_1..n")
    p.add_argument("--from-tables", action="store_true",
                   help="use the bundled published estimates instead of a CSV")
    p.add_argument("--persistence-map", choices=("euler", "log"), default="euler",
                   help="monthly persistence to drift map (default euler)")
    p.add_argument("--out", help="output directory (writes files + manifest.json)")
    p.set_defaults(func=cmd_calibrate, out=".")

    p = subs.add_parser("moments", help="closed-form long-run moments for one strategy")
    p.add_argument("--check", action="store_true",
                   help="also run the Monte Carlo oracle and print z-scores; the default "
                        "--dt, --horizon and --paths make 1e9 path-steps (minutes)")
    _add_common(p, oracle=True)
    p.set_defaults(func=cmd_moments)

    p = subs.add_parser("sweep", help="sweep a strategy coefficient or criterion parameter")
    p.add_argument("--mode", choices=("H", "theta", "gamma"), required=True)
    p.add_argument("--range", help="lo:hi:count or explicit comma list "
                                   "(defaults: H -3:3:121, theta 0.25:64:13 log, gamma 0:0.01:11)")
    p.add_argument("--log", action="store_true", help="log-spaced range")
    p.add_argument("--h", default="1", help="fixed holdings for mode H (default 1)")
    p.add_argument("--theta", type=float, default=1.0, help="fixed theta for mode gamma (default 1)")
    p.add_argument("--gamma", default="0", help="fixed gamma for mode theta (default 0)")
    p.add_argument("--svg", action="store_true", help="also write sweep.svg")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 if any sweep point failed or is not stationary")
    _add_common(p)
    p.set_defaults(func=cmd_sweep, out=".")

    p = subs.add_parser("simulate", help="run the Monte Carlo oracle or emit a monthly series")
    p.add_argument("--scheme", choices=("exact", "euler"), default="exact",
                   help="factor transition scheme (default exact)")
    p.add_argument("--antithetic", action="store_true", help="pair sign-flipped paths")
    p.add_argument("--zero-start", action="store_true",
                   help="start factors at zero instead of the stationary draw")
    p.add_argument("--dump-paths", action="store_true",
                   help="write per-path terminal values to paths.csv (needs --out)")
    p.add_argument("--discrete", type=int, metavar="MONTHS",
                   help="emit a monthly synthetic series (series.csv) instead of path stats; "
                        "reads only --seed and --out")
    _add_common(p, oracle=True)
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("optimize", help="maximize the criterion over strategies")
    p.add_argument("--theta", type=float, default=1.0, help="risk sensitivity (default 1)")
    p.add_argument("--gamma", default="0", help="factor sensitivity vector (default 0)")
    p.add_argument("--grid-bounds", default="-3:3", help="scan box lo:hi (default -3:3)")
    p.add_argument("--grid-points", type=int, default=61, help="scan points per axis (default 61)")
    p.add_argument("--restarts", type=int, default=5, help="local refinements (default 5)")
    _add_common(p)
    p.set_defaults(func=cmd_optimize)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args.raw_argv = list(argv)
    try:
        with warnings.catch_warnings():     # library warnings without their source location
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
            return args.func(args)
    except UsageError as err:
        print(f"longrun: error: {err}", file=sys.stderr)
        return 1
    except (CalibrationNumericError, NumericError, SimulationError,
            UnboundedCriterionError) as err:
        print(f"longrun: numeric failure: {err}", file=sys.stderr)
        return 3
    except (CalibrationDataError, ModelValidationError, OSError) as err:
        print(f"longrun: input error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
