"""Benchmark of the longrun package: one command, three workloads.

    python3 perfbench/run.py --workload {frontier,oracle,multifactor} \
        --seed N --seconds S --trace {0,1}

BENCHMARK.json gates ``frontier`` and ``multifactor`` only.  ``oracle`` runs
on request: its time is Monte Carlo on both cores, which drifted with the
load of a shared 2-core host (17.9-24.9 s per mix over five seeds), and no
reference kernel timed beside it tracked that drift.

Run from the repository root; the package is imported from ``src/``.  The
process first times ``setup_samples`` fresh set-ups (a new interpreter
importing the package and building the workload's model), then issues the
workload's request mix back to back (one client, closed loop), starting
another mix only while it would end within ``--seconds``; at least one mix
runs.  ``wall_s`` is the mix's wall time taken step by step: the sum, over
the steps of the mix, of each step's median time across the run's mixes.
``wall_norm_s``, the gated figure, is the same sum over step times scaled
by the reference kernel timed around each step (``workloads.reference_s``),
which cancels the host's drifting speed.  Every output is checked, outside
the timers.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
untraced mixes, then one traced mix with the calls between layers rebound to
span recorders, then the reproducibility checks and the roadmap's baseline
figures, and reports the per-layer metrics; spans are saved to
``.perfbench-out/trace-<workload>-<seed>.npz``.  Per-layer figures of a
layer a workload never calls read 0.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

END_TO_END = {
    "setup_s": "s",
    "wall_norm_s": "s",
    "peak_rss_mb": "MB",
}

# Figures of the untraced mixes.  They are not gated: raw ``wall_s`` drifts
# with the host's speed, and each of the others exists on some workloads
# only, reading 0 on the rest.  The
# traced run reports them with the per-layer metrics, where ``mc.draws``
# and ``mc.rng_share`` are computed from the draw layout, not measured.
REQUESTS = {
    "wall_s": "s",
    "optimize_s": "s",
    "optimize_evaluations": "count",
    "unbounded_s": "s",
    "sweep_theta_s": "s",
    "sweep_gamma_s": "s",
    "sweep_H_s": "s",
    "path_steps_per_s": "1/s",
    "moments_us_p50": "us",
    "moments_us_p99": "us",
    "moments_samples": "count",
    "failed_ratio": "ratio",
}

PER_LAYER = {
    "setup.import_s": "s",
    "setup.model_s": "s",
    "linalg.lyapunov_calls": "count",
    "linalg.lyapunov_s": "s",
    "linalg.lyapunov_us_p50": "us",
    "linalg.stability_checks": "count",
    "moments.calls": "count",
    "moments.self_s": "s",
    "moments.stationary_cov_calls": "count",
    "model.strategies_built": "count",
    "criterion.evaluations": "count",
    "criterion.scan_s": "s",
    "criterion.refine_s": "s",
    "criterion.refine_evals": "count",
    "criterion.tail_s": "s",
    "criterion.scan_share": "ratio",
    "criterion.restart_yield": "ratio",
    "mc.path_steps": "count",
    "mc.draws": "count",
    "mc.path_steps_per_s_1thread": "1/s",
    "mc.thread_speedup": "ratio",
    "mc.rng_normals_per_s": "1/s",
    "mc.rng_share": "ratio",
    "mc.recursion_s": "s",
    "mc.transition_s": "s",
    "calibration.calibrate_s": "s",
    "calibration.rows": "count",
    "calibration.simulate_discrete_s": "s",
    "cli.overhead_s": "s",
    "cli.bytes_written": "bytes",
    "svg.plot_s": "s",
    "trace.overhead_ratio": "ratio",
    **REQUESTS,
    "src_lines": "lines",
    "api_size": "count",
    "baseline.moments_1x1_us": "us",
    "baseline.moments_3x2_us": "us",
    "baseline.evaluate_1x1_us": "us",
    "baseline.path_steps_per_s_1x1": "1/s",
    "baseline.path_steps_per_s_3x2": "1/s",
    "baseline.sweep_theta_13_s": "s",
}

# The highest percentile reported must leave at least this many samples above it.
TAIL_SAMPLES = 10


def percentile(values, q: float) -> float:
    """``q``-th percentile, refusing one with fewer than TAIL_SAMPLES samples beyond it."""
    if len(values) * (1.0 - q / 100.0) < TAIL_SAMPLES:
        raise ValueError(f"{len(values)} samples are too few for a p{q:g}")
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]


def set_up(workload: str, samples: int) -> dict:
    """Median of ``samples`` fresh set-ups, each timed from interpreter start."""
    runs = []
    for _ in range(samples):
        t0 = perf_counter()
        child = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), str(SRC), workload],
            capture_output=True, text=True, timeout=120, check=True)
        doc = json.loads(child.stdout.splitlines()[-1])
        runs.append((doc["ready"] - t0, doc["import_s"], doc["model_s"]))
    total, imp, model = (statistics.median(col) for col in zip(*runs))
    return {"setup_s": total, "setup.import_s": imp, "setup.model_s": model}


def step_median(passes, key, kind="times") -> float:
    """Median over mixes of the time one step of the mix took (0 if never run)."""
    values = [sum(getattr(p, kind)[key]) for p in passes if key in getattr(p, kind)]
    return statistics.median(values) if values else 0.0


def mix_wall(passes, kind="times") -> float:
    """Wall time of one mix, as the sum of its steps' median times."""
    keys = {k for p in passes for k in getattr(p, kind)}
    return sum(step_median(passes, key, kind) for key in keys)


def request_metrics(passes, ledger) -> dict:
    """Per-request figures of the untraced mixes (medians over mixes)."""
    def med(key):
        return step_median(passes, key)

    steps = sum(p.counts.get("path_steps", 0) for p in passes)
    mc_time = sum(sum(p.times.get(k, ())) for p in passes for k in ("oracle_s", "simulate_s"))
    moments_us = [us for p in passes for us in p.moments_us]
    return {
        "wall_s": mix_wall(passes),
        "optimize_s": med("optimize_s"),
        "optimize_evaluations": passes[0].counts.get("optimize_evaluations", 0),
        "unbounded_s": med("unbounded_s"),
        "sweep_theta_s": med("sweep_theta_s"),
        "sweep_gamma_s": med("sweep_gamma_s"),
        "sweep_H_s": med("sweep_H_s"),
        "path_steps_per_s": steps / mc_time if mc_time else 0.0,
        "moments_us_p50": statistics.median(moments_us) if moments_us else 0.0,
        "moments_us_p99": percentile(moments_us, 99) if moments_us else 0.0,
        "moments_samples": len(moments_us),
        "failed_ratio": ledger.failed / ledger.attempted,
    }


def src_lines() -> int:
    return sum(len(path.read_text().splitlines()) for path in SRC.rglob("*.py"))


def main(argv=None, sizes=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("frontier", "oracle", "multifactor"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "longrun" / "__init__.py").is_file():
        print(f"perfbench: no longrun package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import longrun as lr

    if Path(lr.__file__).resolve().parent != (SRC / "longrun").resolve():
        print(f"perfbench: imported longrun from {lr.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import longrun.cli  # noqa: F401  (the CLI and the plotter it loads on demand)
    import longrun.svg  # noqa: F401
    import layers
    import workloads
    from spans import Tracer

    sizes = sizes or workloads.FULL
    workload = workloads.WORKLOADS[args.workload]
    setup = set_up(args.workload, sizes.setup_samples)

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        inputs = workload.prepare(lr, workdir, args.seed, sizes)
        ledger = workloads.Ledger()

        def new_pass(name, tracer=None):
            (workdir / name).mkdir()
            return workloads.Pass(lr, workdir / name, args.seed, sizes, ledger, tracer)

        passes = []
        start = perf_counter()
        while True:
            p = new_pass(f"mix{len(passes)}")
            t0 = perf_counter()
            workload.mix(p, inputs)
            p.wall = perf_counter() - t0
            passes.append(p)
            if perf_counter() - start + p.wall > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        if not args.trace:
            requests = request_metrics(passes, ledger)
            for name, value in requests.items():
                print(f"{name} {value!r} {REQUESTS[name]}")
            metrics = {"setup_s": setup["setup_s"], "wall_norm_s": mix_wall(passes, "scaled"),
                       "peak_rss_mb": peak_rss_mb}
            units = END_TO_END
        else:
            tracer = Tracer()
            layers.instrument(tracer)
            try:
                traced = new_pass("traced", tracer)
                workload.mix(traced, inputs)
            finally:
                tracer.restore()
            repro = workload.reproduce(lr, inputs, passes[0], traced, ledger)
            rng_rate = layers.rng_normals_per_s(inputs["model"].m + inputs["model"].n)
            metrics = {
                "setup.import_s": setup["setup.import_s"],
                "setup.model_s": setup["setup.model_s"],
                **layers.from_spans(tracer),
                "mc.path_steps_per_s_1thread": repro.get("path_steps_per_s_1thread", 0.0),
                "mc.thread_speedup": repro.get("thread_speedup", 0.0),
                "mc.rng_normals_per_s": rng_rate,
                "mc.rng_share": (repro["draws_1thread"] / rng_rate / repro["seconds_1thread"]
                                 if "draws_1thread" in repro else 0.0),
                "cli.bytes_written": traced.bytes_written,
                "trace.overhead_ratio": mix_wall([traced], "scaled") / mix_wall(passes, "scaled")
                                        - 1.0,
                **request_metrics(passes, ledger),
                "src_lines": src_lines(),
                "api_size": len(lr.__all__),
                **layers.baseline(lr, args.seed),
                "baseline.sweep_theta_13_s": repro.get("sweep_theta_13_s", 0.0),
            }
            tracer.save(OUT / f"trace-{args.workload}-{args.seed}.npz")
            units = PER_LAYER
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
