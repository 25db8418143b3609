"""The benchmark's three request mixes and the checks on every output.

Each workload has ``prepare`` (inputs made from the seed, untimed), ``mix``
(one closed-loop round of requests, issued back to back by one client) and
``reproduce`` (the reproducibility checks of the traced run).  Requests go
through the public API or ``longrun.cli.main`` in-process; functions are
looked up on their module at call time so the traced pass can rebind them.

Every operation is recorded in a :class:`Ledger`.  An operation fails when
one of its checks does not hold.  A failure marks the run incorrect when
the output is wrong (a wrong exit code, a non-finite or negative value, a
broken sweep shape, a raise where none is documented, a reproducibility
mismatch); it does not when the program flagged the result itself (an
optimum reported as not stationary) or when a Monte Carlo z-score misses
its bound, which happens by chance.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy.linalg

NPROC = len(os.sched_getaffinity(0))

# The multifactor model is the seed-0 draw of the generator below.  With a
# model drawn per seed the optimizer's work varies about 2x between seeds
# (the unbounded request either raises after the scan or runs every
# refinement to its iteration cap), which no run length makes steady; the
# seed-0 draw is the one on which that request hits the known defect.
MULTIFACTOR_MODEL_SEED = 0
MULTIFACTOR_SHAPE = (3, 2)

# (h, H) pairs of the Monte Carlo acceptance test.
ORACLE_STRATEGIES = (("1", "0"), ("1", "1"), ("0.5", "-1"))
Z_BOUND = 3.0
# An optimum farther out than this is a runaway: the known defect where the
# unbounded request returns a huge strategy instead of raising.
RUNAWAY_NORM = 1e6


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; FULL is the benchmark, SMOKE the self-test."""

    setup_samples: int
    theta_sweep: tuple = ()         # extra `sweep --mode theta` flags; () keeps CLI defaults
    gamma_sweep: tuple = ()
    H_sweep: tuple = ()
    optimize_flags: tuple = ()
    baseline_theta_sweep: tuple = ()   # the traced run's theta sweep; () is the default grid
    # dt 0.2 halves the oracle's cost; with 8x its paths the nine z-scores
    # stay within 2, so the step adds no bias the |z| < 3 check could see.
    oracle_dt: float = 0.2
    oracle_horizon: float | None = None   # None: recommended_horizon, rounded up
    repro_horizon: float = 300.0    # thread-identity check of the traced run
    months: int = 2400
    moments_batch: int = 1024
    moments_warmup: int = 256
    sim_dt: float = 0.1
    sim_horizon: float = 100.0
    # multifactor optimizer: the default LHS scan with fewer, shorter
    # refinements; the bounded request reaches the default's optimum
    local_restarts: int = 2
    max_iterations: int = 500


# A mix takes a few seconds, so one run times several and reports medians.
# The sweeps use two points each; the traced run adds the default 13-point
# theta sweep.
FULL = Sizes(
    setup_samples=3,
    theta_sweep=("--range", "16,64"),
    gamma_sweep=("--range", "0,0.01"),
)
SMOKE = Sizes(
    setup_samples=1,
    theta_sweep=("--range", "16,64"),
    baseline_theta_sweep=("--range", "16:64:3", "--log"),
    gamma_sweep=("--range", "0,0.01"),
    H_sweep=("--range=-3:3:11",),
    optimize_flags=("--grid-points", "11"),
    oracle_dt=0.5, oracle_horizon=50.0, repro_horizon=5.0,
    months=240, moments_batch=1000, moments_warmup=8,
    sim_dt=0.5, sim_horizon=10.0, local_restarts=1, max_iterations=40,
)


# The host's speed drifts by up to 2x within a minute (other tenants share its
# cores), far beyond the bounds a timing must keep.  A fixed kernel of small
# NumPy/SciPy calls, the kind of work the requests do, is timed right before
# and after each timed step; dividing the step's time by it cancels the drift.
# REFERENCE_S is the kernel's median time on an unloaded 2-core x86-64 host
# (Python 3.11, NumPy 2.4, SciPy 1.17), so scaled times read as seconds on
# such a host.  Monte Carlo
# steps are not scaled: their bulk arrays on both cores drift far less, and
# the single-threaded kernel does not track them (scaling widened the oracle
# spread across five seeds from 5% to 32% there).
REFERENCE_S = 0.030
_REF_B = np.array([[-0.5, 0.1], [0.2, -0.3]])
_REF_Q = np.array([[1.0, 0.2], [0.2, 0.5]])


def reference_s() -> float:
    """Time of one run of the reference kernel; it uses numpy and scipy only."""
    t0 = perf_counter()
    x = np.ones(2)
    for _ in range(300):
        X = scipy.linalg.solve_continuous_lyapunov(_REF_B, -_REF_Q)
        x = _REF_B @ x + X[0]
        np.linalg.eigvals(_REF_B)
        float(np.trace(X @ _REF_Q))
    return perf_counter() - t0


def random_stable_model(lr, rng: np.random.Generator, m: int, n: int):
    """Same draw as ``random_stable_model`` in the test suite's conftest."""
    raw = rng.normal(scale=0.6, size=(n, n))
    shift = float(np.max(np.linalg.eigvals(raw).real)) + rng.uniform(0.05, 0.55)
    B = raw - shift * np.eye(n)
    return lr.FactorModel(
        a=rng.normal(scale=0.05, size=m),
        A=rng.normal(scale=0.05, size=(m, n)),
        B=B,
        Sigma=rng.normal(scale=0.2, size=(m, m + n)) + np.hstack([np.eye(m) * 0.3, np.zeros((m, n))]),
        Lambda=rng.normal(scale=0.4, size=(n, m + n)),
    )


def build_model(lr, workload: str):
    """The model a workload starts from: its set-up cost after the import."""
    if workload == "frontier":
        return lr.report_from_estimates(lr.reference_estimates()).model
    if workload == "oracle":
        return lr.reference_model()
    return random_stable_model(lr, np.random.default_rng(MULTIFACTOR_MODEL_SEED), *MULTIFACTOR_SHAPE)


class Ledger:
    """Operations attempted and failed, and whether any output was wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def record(self, name: str, problems) -> None:
        """``problems`` lists (message, wrong) for each check that did not hold."""
        self.attempted += 1
        if problems:
            self.failed += 1
        for message, wrong in problems:
            self.correct = self.correct and not wrong
            kind = "wrong output" if wrong else "failed"
            print(f"perfbench: {name}: {kind}: {message}", file=sys.stderr)


def expect(problems: list, ok, message: str, wrong: bool = True) -> None:
    if not ok:
        problems.append((message, wrong))


def finite(*values) -> bool:
    return all(np.all(np.isfinite(np.asarray(v, dtype=float))) for v in values)


@dataclass
class CliRun:
    code: int
    stdout: str
    stderr: str
    out: Path


@dataclass
class Pass:
    """One round of a workload's requests, with what it measured."""

    lr: object
    workdir: Path
    seed: int
    sizes: Sizes
    ledger: Ledger
    tracer: object = None
    times: dict = field(default_factory=dict)       # request kind -> seconds per request
    scaled: dict = field(default_factory=dict)      # the same, at the reference speed
    counts: dict = field(default_factory=dict)
    moments_us: list = field(default_factory=list)
    results: dict = field(default_factory=dict)     # outputs the reproducibility checks compare
    bytes_written: int = 0
    wall: float = 0.0
    _runs: int = field(default=0, init=False, repr=False)

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def count(self, key: str, amount) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def timed(self, key: str, elapsed: float, ref_before: float | None) -> None:
        """Record a step's time, and its time scaled by the reference kernel timed
        around it (the time as is when ``ref_before`` is None)."""
        self.times.setdefault(key, []).append(elapsed)
        if ref_before is not None:
            elapsed /= (ref_before + reference_s()) / (2.0 * REFERENCE_S)
        self.scaled.setdefault(key, []).append(elapsed)

    def reference(self, timing: str | None, scale: bool = True) -> float | None:
        """The kernel's time before a step that is scaled (it runs outside any span)."""
        return reference_s() if timing is not None and scale else None

    def op(self, name: str, call, check, timing: str | None = None, scale: bool = True):
        """Issue one request, time it, then check its output outside the timer."""
        ref = self.reference(timing, scale)
        t0 = perf_counter()
        try:
            with self.span("request." + name):
                out = call()
        except Exception as exc:   # a request that raises is recorded, and the run goes on
            traceback.print_exc(file=sys.stderr)
            self.ledger.record(name, [(f"raised {type(exc).__name__}: {exc}", True)])
            return None
        elapsed = perf_counter() - t0
        if timing is not None:
            self.timed(timing, elapsed, ref)
        if isinstance(out, CliRun):
            self.bytes_written += len(out.stdout.encode()) + sum(
                f.stat().st_size for f in out.out.glob("*") if f.is_file())
        self.ledger.record(name, check(out))
        return out

    def cli(self, argv) -> CliRun:
        """Run ``longrun.cli.main`` in-process with its own output directory."""
        self._runs += 1
        out = self.workdir / f"{self._runs:02d}-{argv[0]}"
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr), self.span("cli." + argv[0]):
            code = sys.modules["longrun.cli"].main([*argv, "--out", str(out)])
        return CliRun(code, stdout.getvalue(), stderr.getvalue(), out)


def exit_code(run: CliRun, expected: int) -> list:
    if run.code == expected:
        return []
    return [(f"exit code {run.code}, expected {expected}: {run.stderr.strip()[-300:]}", True)]


def read_csv(path: Path) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {key: np.array([float(r[key]) for r in rows]) for key in rows[0]}


# --- frontier: the CLI verbs on the reference model -------------------------

def check_calibrate(run: CliRun) -> list:
    problems = exit_code(run, 0)
    if not problems:
        doc = json.loads((run.out / "model.json").read_text())
        B = np.array(doc["B"], dtype=float)
        expect(problems, finite(doc["a"], doc["A"], B, doc["Sigma"], doc["Lambda"]),
               "calibrated model has non-finite entries")
        expect(problems, finite(B) and np.linalg.eigvals(B).real.max() < 0.0,
               "calibrated B is not stable")
    return problems


def check_theta_sweep(run: CliRun) -> list:
    """Acceptance test 8: W and h* fall with theta, H*/h* settles."""
    problems = exit_code(run, 0)
    if problems:
        return problems
    t = read_csv(run.out / "sweep.csv")
    h, W, ratio = t["h"], t["W"], t["ratio"]
    if not finite(h, t["H"], W, ratio):
        return [("a theta sweep point failed", True)]
    expect(problems, np.all(np.diff(W) <= 0.0), "W is not non-increasing in theta")
    expect(problems, np.all(h > 0.0), "h* is not positive")
    expect(problems, np.all(h[1:] <= h[:-1] * 1.01), "h* rises with theta")
    top = ratio[-4:]
    spread = (top.max() - top.min()) / abs(top.mean())
    expect(problems, spread < 0.10, f"H*/h* spread {spread:.3g} over the top {top.size} thetas")
    return problems


def check_gamma_sweep(run: CliRun) -> list:
    """Acceptance test 9: gamma moves the level h* more than the tilt H*."""
    problems = exit_code(run, 0)
    if problems:
        return problems
    t = read_csv(run.out / "sweep.csv")
    h, H = t["h"], t["H"]
    if not finite(h, H, t["W"]):
        return [("a gamma sweep point failed", True)]
    expect(problems, h[-1] < h[0], "h* does not fall with gamma")
    expect(problems, abs((H[-1] - H[0]) / H[0]) < abs((h[-1] - h[0]) / h[0]),
           "gamma moves H* more than h*")
    return problems


def check_H_sweep(run: CliRun) -> list:
    problems = exit_code(run, 0)
    if problems:
        return problems
    t = read_csv(run.out / "sweep.csv")
    expect(problems, finite(*t.values()), "non-finite moment in the H sweep")
    expect(problems, np.all(t["varRate"] >= 0.0), "negative variance rate in the H sweep")
    svg = (run.out / "sweep.svg").read_text()
    expect(problems, svg.lstrip().startswith("<svg") and svg.rstrip().endswith("</svg>"),
           "sweep.svg is not an SVG document")
    return problems


def check_optimum_doc(doc: dict) -> list:
    problems = []
    expect(problems, finite(doc["h"], doc["H"], doc["value"]), "optimum is not finite")
    expect(problems, doc["stationary"], f"optimum not stationary: {doc['message']}", wrong=False)
    norm = float(np.linalg.norm(np.concatenate([np.ravel(doc["h"]), np.ravel(doc["H"])])))
    expect(problems, not norm > RUNAWAY_NORM, f"runaway optimum, strategy norm {norm:.3g}",
           wrong=False)
    return problems


class Frontier:
    """CLI verbs with their default grids on the 1x1 reference model."""

    @staticmethod
    def prepare(lr, workdir: Path, seed: int, sizes: Sizes) -> dict:
        return {"model": build_model(lr, "frontier")}

    @staticmethod
    def mix(p: Pass, inputs: dict) -> None:
        cal = p.op("calibrate", lambda: p.cli(["calibrate", "--from-tables"]), check_calibrate,
                   "calibrate_s")
        if cal is None or cal.code != 0:
            return          # every later request reads the calibrated model
        common = ["--model", str(cal.out / "model.json"), "--seed", str(p.seed)]
        p.results["common"] = common
        sz = p.sizes
        p.op("sweep_theta", lambda: p.cli(["sweep", "--mode", "theta", *common, *sz.theta_sweep]),
             check_theta_sweep, "sweep_theta_s")
        p.op("sweep_gamma", lambda: p.cli(["sweep", "--mode", "gamma", "--theta", "1", *common,
                                           *sz.gamma_sweep]),
             check_gamma_sweep, "sweep_gamma_s")
        p.results["sweep_H"] = p.op(
            "sweep_H", lambda: p.cli(["sweep", "--mode", "H", "--svg", *common, *sz.H_sweep]),
            check_H_sweep, "sweep_H_s")

        def check_optimize(run: CliRun) -> list:
            problems = exit_code(run, 0)
            if not problems:
                doc = json.loads(run.stdout)
                p.count("optimize_evaluations", doc["evaluations"])
                problems = check_optimum_doc(doc)
            return problems

        p.results["optimize"] = p.op(
            "optimize", lambda: p.cli(["optimize", "--theta", "1", *common, *sz.optimize_flags]),
            check_optimize, "optimize_s")
        p.op("unbounded", lambda: p.cli(["optimize", "--theta", "0", "--gamma", "0.05", *common,
                                         *sz.optimize_flags]),
             lambda run: exit_code(run, 3), "unbounded_s")

    @staticmethod
    def reproduce(lr, inputs: dict, first: Pass, traced: Pass, ledger: Ledger) -> dict:
        """Two optimize calls agree; the H sweep replays from its manifest.

        Also times the theta sweep on its default 13-point grid, a baseline figure.
        """
        problems = []
        a, b = first.results.get("optimize"), traced.results.get("optimize")
        expect(problems, a is not None and b is not None and a.stdout == b.stdout,
               "two optimize requests gave different output")
        ledger.record("repeat optimize", problems)

        replay_dir = traced.workdir.parent / "replay"
        replay_dir.mkdir()
        replay = Pass(lr, replay_dir, traced.seed, traced.sizes, ledger)
        if "common" in traced.results:
            replay.op("sweep_theta default grid",
                      lambda: replay.cli(["sweep", "--mode", "theta", *traced.results["common"],
                                          *traced.sizes.baseline_theta_sweep]),
                      check_theta_sweep, "sweep_theta_13_s")
        figures = {"sweep_theta_13_s": sum(replay.times.get("sweep_theta_13_s", ()))}

        sweep = traced.results.get("sweep_H")
        if sweep is None:
            ledger.record("replay sweep H", [("no sweep to replay", True)])
            return figures
        argv = json.loads((sweep.out / "manifest.json").read_text())["argv"]

        def check_replay(run: CliRun) -> list:
            problems = exit_code(run, 0)
            names = sorted(f.name for f in sweep.out.iterdir())
            expect(problems, names == sorted(f.name for f in run.out.iterdir()),
                   "replay wrote a different set of files")
            for name in names:
                expect(problems, (sweep.out / name).read_bytes() == (run.out / name).read_bytes(),
                       f"{name} differs on replay")
            return problems

        replay.op("replay sweep H", lambda: replay.cli(argv), check_replay)
        return figures


# --- oracle: the Monte Carlo cross-check of the closed forms ---------------

class Oracle:
    """`moments --check` on the reference model for the acceptance strategies."""

    @staticmethod
    def prepare(lr, workdir: Path, seed: int, sizes: Sizes) -> dict:
        model = build_model(lr, "oracle")
        model_file = workdir / "reference.json"
        lr.save_model(model, model_file)
        mc = sys.modules["longrun.mc"]
        horizon = sizes.oracle_horizon or float(math.ceil(mc.recommended_horizon(model)))
        return {"model": model, "model_file": str(model_file), "horizon": horizon,
                "paths": NPROC * mc.BLOCK}

    @staticmethod
    def mix(p: Pass, inputs: dict) -> None:
        sz = p.sizes
        steps = int(round(inputs["horizon"] / sz.oracle_dt))
        for h, H in ORACLE_STRATEGIES:
            argv = ["moments", "--model", inputs["model_file"], "--h", h, f"--H={H}", "--check",
                    "--dt", repr(sz.oracle_dt), "--horizon", repr(inputs["horizon"]),
                    "--paths", str(inputs["paths"]), "--threads", str(NPROC),
                    "--seed", str(p.seed)]
            if p.op(f"oracle h={h} H={H}", lambda: p.cli(argv), check_oracle, "oracle_s",
                    scale=False):
                p.count("path_steps", inputs["paths"] * steps)

    @staticmethod
    def reproduce(lr, inputs: dict, first: Pass, traced: Pass, ledger: Ledger) -> dict:
        config = lr.SimConfig(dt=traced.sizes.oracle_dt, horizon=traced.sizes.repro_horizon,
                              paths=inputs["paths"], seed=traced.seed)
        strategy = lr.Strategy(h=np.ones(1), H=np.zeros((1, 1)))
        return thread_identity(lr, inputs["model"], strategy, config, ledger)


def check_oracle(run: CliRun) -> list:
    problems = exit_code(run, 0)
    if problems:
        return problems
    doc = json.loads((run.out / "moments.json").read_text())
    expect(problems, finite(doc["growth_rate"], doc["variance_rate"], doc["wealth_factor_cov"]),
           "non-finite closed-form moment")
    expect(problems, doc["variance_rate"] >= 0.0, "negative variance rate")
    for name, row in doc["check"].items():
        expect(problems, abs(row["z"]) < Z_BOUND, f"{name} z={row['z']:+.2f}", wrong=False)
    return problems


# --- multifactor: the library on a 3x2 model ---------------------------------

def check_optimum(res) -> list:
    return check_optimum_doc({"h": res.strategy.h, "H": res.strategy.H, "value": res.value,
                              "stationary": res.stationary, "message": res.message})


def check_moments(mom) -> list:
    problems = []
    expect(problems, finite(mom.growth_rate, mom.variance_rate, mom.wealth_factor_cov),
           "non-finite moment")
    expect(problems, mom.variance_rate >= 0.0, f"negative variance rate {mom.variance_rate!r}")
    return problems


def check_stats(stats) -> list:
    problems = []
    expect(problems, finite(*(getattr(stats, f.name) for f in fields(stats)
                              if getattr(stats, f.name) is not None)),
           "non-finite path statistic")
    expect(problems, stats.var_u >= 0.0, "negative variance of u")
    return problems


def check_calibration(report) -> list:
    problems = []
    B = report.model.B
    expect(problems, finite(B) and np.linalg.eigvals(B).real.max() < 0.0, "calibrated B is not stable")
    return problems


def unbounded_request(lr, model, config):
    params = lr.CriterionParams(theta=0.0, gamma=0.5 * np.ones(model.n))
    try:
        return lr.optimize(model, params, config)
    except lr.UnboundedCriterionError as err:
        return err


class Multifactor:
    """Library requests on a stable 3x2 model: calibration, moments, optimizer, Monte Carlo."""

    @staticmethod
    def prepare(lr, workdir: Path, seed: int, sizes: Sizes) -> dict:
        model = build_model(lr, "multifactor")
        m, n = model.m, model.n
        rng = np.random.default_rng(seed)
        count = sizes.moments_warmup + sizes.moments_batch
        strategies = [lr.Strategy(h=rng.uniform(-3.0, 3.0, m), H=rng.uniform(-3.0, 3.0, (m, n)))
                      for _ in range(count)]
        config = lr.OptimizerConfig(local_restarts=sizes.local_restarts,
                                    max_iterations=sizes.max_iterations)
        paths = NPROC * sys.modules["longrun.mc"].BLOCK
        sim = lr.SimConfig(dt=sizes.sim_dt, horizon=sizes.sim_horizon, paths=paths, seed=seed)
        return {"model": model, "strategies": strategies, "config": config, "sim": sim}

    @staticmethod
    def mix(p: Pass, inputs: dict) -> None:
        lr, model, sz = p.lr, inputs["model"], p.sizes
        p.op("round trip", lambda: lr.calibrate(lr.simulate_discrete(model, sz.months, seed=p.seed)),
             check_calibration, "round_trip_s")

        warmup = inputs["strategies"][:sz.moments_warmup]
        for strategy in warmup:     # fills caches before timing; not part of the mix
            lr.moments(model, strategy)
        ref = p.reference("moments_s")
        for strategy in inputs["strategies"][sz.moments_warmup:]:
            with p.span("request.moments"):
                try:
                    t0 = perf_counter()
                    mom = lr.moments(model, strategy)
                    p.moments_us.append((perf_counter() - t0) * 1e6)
                except Exception as exc:   # recorded like any other failed request
                    p.ledger.record("moments", [(f"raised {type(exc).__name__}: {exc}", True)])
                    continue
            p.ledger.record("moments", check_moments(mom))
        p.timed("moments_s", sum(p.moments_us) * 1e-6, ref)

        params = lr.CriterionParams(theta=1.0, gamma=np.zeros(model.n))
        best = p.op("optimize", lambda: lr.optimize(model, params, inputs["config"]),
                    check_optimum, "optimize_s")
        p.results["optimize"] = best
        if best is not None:
            p.count("optimize_evaluations", best.evaluations)
        p.op("unbounded", lambda: unbounded_request(lr, model, inputs["config"]),
             lambda out: [] if isinstance(out, lr.UnboundedCriterionError) else check_optimum(out),
             "unbounded_s")
        if best is None:
            p.ledger.record("simulate", [("no optimum to simulate", True)])
            return
        sim = inputs["sim"]
        if p.op("simulate", lambda: lr.simulate(model, best.strategy, sim, threads=NPROC),
                check_stats, "simulate_s", scale=False):
            p.count("path_steps", sim.paths * int(round(sim.horizon / sim.dt)))

    @staticmethod
    def reproduce(lr, inputs: dict, first: Pass, traced: Pass, ledger: Ledger) -> dict:
        a, b = first.results.get("optimize"), traced.results.get("optimize")
        problems = []
        same = (a is not None and b is not None
                and np.array_equal(a.strategy.h, b.strategy.h)
                and np.array_equal(a.strategy.H, b.strategy.H)
                and a.value == b.value and a.evaluations == b.evaluations)
        expect(problems, same, "two optimize calls gave different results or evaluation counts")
        ledger.record("repeat optimize", problems)
        if b is None:
            return {}
        config = replace(inputs["sim"], horizon=traced.sizes.repro_horizon)
        return thread_identity(lr, inputs["model"], b.strategy, config, ledger)


def normals_drawn(model, config) -> int:
    """Normal draws ``simulate`` consumes, computed from the draw layout in ``longrun.mc``."""
    mc = sys.modules["longrun.mc"]
    m, n = model.m, model.n
    steps = int(round(config.horizon / config.dt))
    per_step = m + n + (n if config.factor_scheme == "exact" else 0)
    per_block = (mc.BLOCK * n if config.stationary_start else 0) + \
        math.ceil(steps / mc.CHUNK) * mc.BLOCK * mc.CHUNK * per_step
    return math.ceil(config.paths / mc.BLOCK) * per_block


def thread_identity(lr, model, strategy, config, ledger: Ledger) -> dict:
    """Same statistics at threads=1 and threads=NPROC; times both runs."""
    t0 = perf_counter()
    one = lr.simulate(model, strategy, config, threads=1)
    t1 = perf_counter()
    many = lr.simulate(model, strategy, config, threads=NPROC)
    t2 = perf_counter()
    problems = []
    for f in fields(one):
        x, y = getattr(one, f.name), getattr(many, f.name)
        expect(problems, (x is None and y is None) or np.array_equal(x, y),
               f"{f.name} differs between threads=1 and threads={NPROC}")
    ledger.record("thread identity", problems)
    path_steps = config.paths * int(round(config.horizon / config.dt))
    return {"path_steps_per_s_1thread": path_steps / (t1 - t0),
            "thread_speedup": (t1 - t0) / (t2 - t1),
            "draws_1thread": normals_drawn(model, config),
            "seconds_1thread": t1 - t0}


WORKLOADS = {"frontier": Frontier, "oracle": Oracle, "multifactor": Multifactor}
