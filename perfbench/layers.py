"""Per-layer metrics: what the traced pass rebinds, and what it reads off the spans.

Layers are the modules of ``longrun``: model, linalg, moments, criterion, mc,
calibration, cli and svg.  Span names are ``<layer>.<call>``; ``request.*``
spans are the benchmark's own requests and ``cli.*`` spans its CLI calls.
"""

from __future__ import annotations

import math
import sys
from time import perf_counter

import numpy as np
import scipy.optimize

from workloads import MULTIFACTOR_MODEL_SEED, MULTIFACTOR_SHAPE, normals_drawn, random_stable_model

MOMENT_FUNCTIONS = {
    "stationary_covariance": "moments.stationary_cov",
    "growth_rate": "moments.growth_rate",
    "covariance_limit": "moments.covariance_limit",
    "variance_rate": "moments.variance_rate",
}


def instrument(tracer) -> None:
    """Rebind the calls between layers to traced wrappers (undone by ``tracer.restore``)."""
    mod = {name: sys.modules[f"longrun.{name}"] for name in
           ("cli", "criterion", "moments", "linalg", "mc", "model", "svg")}
    pkg = sys.modules["longrun"]

    def restarts(args, kwargs, result):
        """Count refinements, and those that ended within the tie tolerance of the best."""
        config = args[2] if len(args) > 2 else kwargs.get("config")
        rtol = 1e-10 if config is None else config.simplex_tolerance
        values = [w for _, w in result.restarts]
        best = max(values)
        tracer.add("criterion.refinements", len(values))
        tracer.add("criterion.near_best", sum(w >= best - rtol * (1.0 + abs(best)) for w in values))

    def rows(args, kwargs, result):
        tracer.add("calibration.rows", args[0].excess_returns.shape[0])

    def paths(args, kwargs, result):
        model, config = args[0], args[2]
        tracer.add("mc.path_steps", config.paths * int(round(config.horizon / config.dt)))
        tracer.add("mc.draws", normals_drawn(model, config))

    # the benchmark's own library calls
    tracer.patch(pkg, "simulate_discrete", "calibration.simulate_discrete")
    tracer.patch(pkg, "calibrate", "calibration.calibrate", after=rows)
    tracer.patch(pkg, "moments", "moments.moments")
    tracer.patch(pkg, "optimize", "criterion.optimize", after=restarts)
    tracer.patch(pkg, "simulate", "mc.simulate", after=paths)
    # cli -> library
    cli = mod["cli"]
    tracer.patch(cli, "calibrate", "calibration.calibrate", after=rows)
    tracer.patch(cli, "report_from_estimates", "calibration.calibrate")
    tracer.patch(cli, "optimize", "criterion.optimize", after=restarts)
    tracer.patch(cli, "sweep_theta", "criterion.sweep")
    tracer.patch(cli, "sweep_gamma", "criterion.sweep")
    tracer.patch(cli, "simulate", "mc.simulate", after=paths)
    tracer.patch(cli, "moments", "moments.moments")
    tracer.patch(cli, "load_model", "model.load")
    tracer.patch_counter(cli, "Strategy", "model.strategies_built")
    tracer.patch(mod["svg"], "line_plot", "svg.plot")
    # criterion -> moments, and its own phases
    crit = mod["criterion"]
    tracer.patch(crit, "evaluate", "criterion.evaluate")
    tracer.patch(crit, "optimize", "criterion.optimize", after=restarts)
    tracer.patch(crit, "_probe_unbounded", "criterion.tail")
    tracer.patch(crit, "_fd_gradient", "criterion.tail")
    tracer.patch_counter(crit, "Strategy", "model.strategies_built")
    tracer.patch(scipy.optimize, "minimize", "criterion.refine")
    for name, span in MOMENT_FUNCTIONS.items():
        tracer.patch(crit, name, span)
        tracer.patch(mod["moments"], name, span)
    # moments -> linalg; linalg and model -> the stability check
    tracer.patch(mod["moments"], "solve_lyapunov", "linalg.lyapunov")
    tracer.patch(mod["moments"], "solve_lyapunov_const", "linalg.lyapunov")
    tracer.patch(mod["linalg"], "check_stability", "linalg.stability")
    tracer.patch(mod["model"], "check_stability", "linalg.stability")
    # mc
    tracer.patch(mod["mc"], "lfilter", "mc.recursion")
    tracer.patch(mod["mc"], "_transition", "mc.transition")
    tracer.patch(mod["mc"], "stationary_covariance", "moments.stationary_cov")


def from_spans(tracer) -> dict:
    """Counts and times per layer, read off the recorded spans."""
    t = tracer.table()
    names = np.array(tracer.names + ["<root>"])
    name = names[t["kind"]]
    kind_of = np.full(int(t["sid"].max()) + 1 if t["sid"].size else 0, len(tracer.names))
    kind_of[t["sid"]] = t["kind"]
    parent = names[np.where(t["parent"] >= 0, kind_of[np.maximum(t["parent"], 0)],
                            len(tracer.names))]
    dur, own = t["dur"], t["self"]

    def total(span):
        return float(dur[name == span].sum())

    def calls(span):
        return int(np.count_nonzero(name == span))

    evals = name == "criterion.evaluate"
    scan = evals & (parent == "criterion.optimize")
    refine_evals = evals & (parent == "criterion.refine")
    lyap = dur[name == "linalg.lyapunov"]
    refinements = tracer.counts.get("criterion.refinements", 0)
    return {
        "linalg.lyapunov_calls": lyap.size,
        "linalg.lyapunov_s": float(lyap.sum()),
        "linalg.lyapunov_us_p50": float(np.median(lyap)) * 1e6 if lyap.size else 0.0,
        "linalg.stability_checks": calls("linalg.stability"),
        "moments.calls": calls("moments.moments"),
        "moments.self_s": float(own[np.char.startswith(name, "moments.")].sum()),
        "moments.stationary_cov_calls": calls("moments.stationary_cov"),
        "model.strategies_built": int(tracer.counts.get("model.strategies_built", 0)),
        "criterion.evaluations": int(np.count_nonzero(evals)),
        "criterion.scan_s": float(dur[scan].sum()),
        "criterion.refine_s": total("criterion.refine"),
        "criterion.refine_evals": int(np.count_nonzero(refine_evals)),
        "criterion.tail_s": total("criterion.tail"),
        "criterion.scan_share": float(np.count_nonzero(scan) / max(np.count_nonzero(evals), 1)),
        "criterion.restart_yield": (tracer.counts.get("criterion.near_best", 0) / refinements
                                    if refinements else 0.0),
        "mc.path_steps": int(tracer.counts.get("mc.path_steps", 0)),
        "mc.draws": int(tracer.counts.get("mc.draws", 0)),
        "mc.recursion_s": total("mc.recursion"),
        "mc.transition_s": total("mc.transition"),
        "calibration.calibrate_s": total("calibration.calibrate"),
        "calibration.rows": int(tracer.counts.get("calibration.rows", 0)),
        "calibration.simulate_discrete_s": total("calibration.simulate_discrete"),
        "cli.overhead_s": float(own[np.char.startswith(name, "cli.")].sum()),
        "svg.plot_s": total("svg.plot"),
    }


def median_us(fn, calls: int, warmup: int) -> float:
    for _ in range(warmup):
        fn()
    times = np.empty(calls)
    for i in range(calls):
        t0 = perf_counter()
        fn()
        times[i] = perf_counter() - t0
    return float(np.median(times)) * 1e6


def rng_normals_per_s(k: int, seconds: float = 0.4) -> float:
    """Philox ``standard_normal`` at the simulator's block shape, standalone."""
    mc = sys.modules["longrun.mc"]
    rng = np.random.Generator(np.random.Philox(key=np.array([1, 2], dtype=np.uint64)))
    shape = (mc.BLOCK, mc.CHUNK, k)
    rng.standard_normal(shape)
    rates = []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(rates) < 3:
        t0 = perf_counter()
        rng.standard_normal(shape)
        rates.append(math.prod(shape) / (perf_counter() - t0))
    return float(np.median(rates))


def baseline(lr, seed: int) -> dict:
    """The single-call and single-thread figures of the roadmap's baseline."""
    mc = sys.modules["longrun.mc"]
    ref = lr.reference_model()
    multi = random_stable_model(lr, np.random.default_rng(MULTIFACTOR_MODEL_SEED), *MULTIFACTOR_SHAPE)
    m, n = MULTIFACTOR_SHAPE
    one = lr.Strategy(h=np.ones(1), H=np.zeros((1, 1)))
    spread = lr.Strategy(h=np.full(m, 1.0 / m), H=np.full((m, n), 0.1))
    params = lr.CriterionParams(theta=1.0, gamma=np.zeros(1))
    dlt = lr.stationary_covariance(ref)
    out = {
        "baseline.moments_1x1_us": median_us(lambda: lr.moments(ref, one), 400, 50),
        "baseline.moments_3x2_us": median_us(lambda: lr.moments(multi, spread), 400, 50),
        "baseline.evaluate_1x1_us": median_us(
            lambda: lr.evaluate(ref, one, params, factor_cov=dlt), 400, 50),
    }
    config = lr.SimConfig(dt=0.1, horizon=100.0, paths=mc.BLOCK, seed=seed)
    path_steps = config.paths * int(round(config.horizon / config.dt))
    for label, model, strategy in (("1x1", ref, one), ("3x2", multi, spread)):
        t0 = perf_counter()
        lr.simulate(model, strategy, config, threads=1)
        out[f"baseline.path_steps_per_s_{label}"] = path_steps / (perf_counter() - t0)
    return out
