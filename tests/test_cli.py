import dataclasses
import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from longrun import (
    CriterionParams,
    OptimizerConfig,
    Strategy,
    load_model,
    model_to_dict,
    moments,
    optimize,
    reference_model,
    save_model,
    simulate_discrete,
    timeseries_to_csv,
)
from conftest import random_stable_model
from longrun.cli import main


@pytest.fixture()
def model_file(tmp_path):
    out = tmp_path / "cal"
    rc = main(["calibrate", "--from-tables", "--out", str(out)])
    assert rc == 0
    return str(out / "model.json")


def test_calibrate_from_tables(tmp_path, capsys):
    out = tmp_path / "cal"
    assert main(["calibrate", "--from-tables", "--out", str(out)]) == 0
    assert "model.json" in capsys.readouterr().out
    model = load_model(out / "model.json")
    assert_allclose(model.B[0, 0], -0.021, rtol=1e-12)
    report = json.loads((out / "report.json").read_text())
    assert report["discrete"]["nobs"] == 371
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "calibrate"
    assert "--out" not in manifest["argv"]
    assert set(manifest["outputs"]) == {"model.json", "report.json"}


def test_calibrate_csv_input(tmp_path):
    data = simulate_discrete(reference_model(), 600, seed=2)
    csv_path = tmp_path / "input.csv"
    csv_path.write_text(timeseries_to_csv(data))
    out = tmp_path / "cal"
    assert main(["calibrate", str(csv_path), "--out", str(out)]) == 0
    model = load_model(out / "model.json")
    assert model.m == 1 and model.n == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert str(csv_path) in manifest["inputs"]


def test_calibrate_bad_csv_exit_2(tmp_path, capsys):
    csv_path = tmp_path / "bad.csv"
    csv_path.write_text("date,excess_return_1\n1990-01,0.1\n")
    rc = main(["calibrate", str(csv_path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "factor_1" in capsys.readouterr().err


def test_calibrate_needs_source(tmp_path, capsys):
    rc = main(["calibrate", "--out", str(tmp_path / "o")])
    assert rc == 1


def test_unknown_verb_exit_1(capsys):
    assert main(["frobnicate"]) == 1


def test_no_arguments_exit_1(capsys):
    assert main([]) == 1


def test_moments_stdout(model_file, capsys):
    rc = main(["moments", "--model", model_file, "--h", "1", "--H", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = dict(line.split(" ", 1) for line in out.strip().splitlines())
    mom = moments(load_model(model_file), Strategy(h=np.ones(1), H=np.zeros((1, 1))))
    assert_allclose(float(lines["growth_rate"]), mom.growth_rate, rtol=1e-12)
    assert_allclose(float(lines["variance_rate"]), mom.variance_rate, rtol=1e-12)
    cov = json.loads(lines["wealth_factor_cov"])
    assert_allclose(cov, mom.wealth_factor_cov, rtol=1e-12)
    # same ballpark as the bundled-constants model
    assert_allclose(float(lines["growth_rate"]), 0.01895, rtol=1e-3)


def test_moments_json_output(model_file, tmp_path, capsys):
    out = tmp_path / "mom"
    rc = main(["moments", "--model", model_file, "--h", "0.5", "--H", "-1",
               "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "moments.json").read_text())
    mom = moments(load_model(model_file),
                  Strategy(h=np.array([0.5]), H=np.array([[-1.0]])))
    assert_allclose(doc["growth_rate"], mom.growth_rate, rtol=1e-12)
    assert_allclose(doc["second_moment_slope"][0][0], mom.second_moment_slope[0, 0],
                    rtol=1e-12)
    assert doc["strategy"]["H"] == [[-1.0]]


def test_moments_check_runs_mc(model_file, capsys):
    rc = main(["moments", "--model", model_file, "--check", "--dt", "0.5",
               "--horizon", "200", "--paths", "512", "--seed", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "check growth_rate:" in out
    assert "z=" in out


def test_moments_multi_row_H(tmp_path, capsys):
    path = tmp_path / "m22.json"
    save_model(random_stable_model(np.random.default_rng(3), 2, 2), path)
    argv = ["moments", "--model", str(path), "--h", "1,1", "--H", "0.1,0.2;0.3,0.4"]
    assert main(argv + ["--out", str(tmp_path / "mom")]) == 0
    doc = json.loads((tmp_path / "mom" / "moments.json").read_text())
    mom = moments(load_model(path), Strategy(h=np.ones(2), H=np.array([[0.1, 0.2], [0.3, 0.4]])))
    assert doc["strategy"]["H"] == [[0.1, 0.2], [0.3, 0.4]]
    for field in dataclasses.fields(mom):
        assert np.array_equal(doc[field.name], getattr(mom, field.name)), field.name
    capsys.readouterr()
    for H, message in (("0.1,0.2", "expected 2 row(s)"), ("0.1;0.2,0.3", "row 1 has 1 value(s)")):
        assert main(argv[:-1] + [H]) == 1
        assert message in capsys.readouterr().err


def test_moments_bad_vector_exit_1(model_file, capsys):
    rc = main(["moments", "--model", model_file, "--h", "1,2"])
    assert rc == 1
    assert "--h" in capsys.readouterr().err


def test_missing_model_file_exit_2(tmp_path, capsys):
    rc = main(["moments", "--model", str(tmp_path / "nope.json")])
    assert rc == 2


def _corrupt_model(**fields) -> bytes:
    return json.dumps(model_to_dict(reference_model()) | fields).encode()


def _nest(value, depth: int):
    for _ in range(depth):
        value = [value]
    return value


_HUGE = int("9" * 400)          # a JSON integer beyond the float range


MALFORMED_INPUTS = {
    "m-string": ("moments", _corrupt_model(m="abc")),
    "m-null": ("moments", _corrupt_model(m=None)),
    "a-string": ("moments", _corrupt_model(a="xyz")),
    "a-object": ("moments", _corrupt_model(a={"x": 1})),
    "B-string-entry": ("moments", _corrupt_model(B=[["x"]])),
    "A-ragged": ("moments", _corrupt_model(A=[[-0.01], [0.0, 1.0]])),
    "model-not-utf8": ("moments", _corrupt_model()[:-1] + b', "note": "\xff"}'),
    "csv-not-utf8": ("calibrate", b"date,excess_return_1,factor_1\n1990-01,0.1\xff,0.2\n"),
    "model-deep-nesting": ("moments", b"[" * 100_000),
    "csv-huge-field": ("calibrate", b"date,excess_return_1,factor_1\n1990-01,0.1," + b"1" * 131_073 + b"\n"),
    "a-numeric-string": ("moments", _corrupt_model(a=["0.01"])),
    "a-boolean": ("moments", _corrupt_model(a=[True])),
    "Sigma-boolean-entry": ("moments", _corrupt_model(Sigma=[[0.044249, False]])),
    "Lambda-boolean-entry": ("moments", _corrupt_model(Lambda=[[0, True]])),
    **{f"{field}-huge-{kind}": ("moments", _corrupt_model(**{field: _nest(entry, depth)}))
       for field, depth in (("a", 1), ("A", 2), ("B", 2), ("Sigma", 2), ("Lambda", 2))
       for kind, entry in (("positive", _HUGE), ("negative", -_HUGE), ("nested", [_HUGE]))},
}


@pytest.mark.parametrize("name", MALFORMED_INPUTS)
def test_malformed_input_exit_2(tmp_path, capsys, name):
    verb, data = MALFORMED_INPUTS[name]
    path = tmp_path / "input"
    path.write_bytes(data)
    argv = (["moments", "--model", str(path)] if verb == "moments"
            else ["calibrate", str(path), "--out", str(tmp_path / "o")])
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("longrun: input error:")


_MUTATION_BYTES = b'0123456789.-+eE,:;[]{}"\n '


def _mutations(data: bytes, rng, count: int):
    """``count`` seeded corruptions of ``data``, each 1-3 byte edits: replace, insert, delete, repeat."""
    for _ in range(count):
        b = bytearray(data)
        for _ in range(int(rng.integers(1, 4))):
            i, op = int(rng.integers(len(b))), int(rng.integers(4))
            byte = _MUTATION_BYTES[int(rng.integers(len(_MUTATION_BYTES)))]
            if op == 0:
                b[i] = byte
            elif op == 1:
                b.insert(i, byte)
            elif op == 2:
                del b[i]
            else:
                b[i:i] = b[i:i + int(rng.integers(1, 16))]
        yield bytes(b)


def test_random_corruptions_exit_0_or_2(model_file, tmp_path):
    # A corrupted model or CSV is either still valid input or an input error:
    # no traceback, no numeric failure.
    assert main(["simulate", "--model", model_file, "--discrete", "48", "--seed", "3",
                 "--out", str(tmp_path / "sim")]) == 0
    rng = np.random.default_rng(9)
    path = tmp_path / "input"
    for verb, data in (("moments", Path(model_file).read_bytes()),
                       ("calibrate", (tmp_path / "sim" / "series.csv").read_bytes())):
        for bad in _mutations(data, rng, 200):
            path.write_bytes(bad)
            argv = (["moments", "--model", str(path)] if verb == "moments"
                    else ["calibrate", str(path), "--out", str(tmp_path / "o")])
            assert main(argv) in (0, 2), (verb, bad)


def test_sweep_H_csv(model_file, tmp_path):
    out = tmp_path / "sw"
    rc = main(["sweep", "--model", model_file, "--mode", "H", "--h", "1",
               "--range=-1:1:5", "--out", str(out)])
    assert rc == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "H,K,P,varRate"
    assert len(lines) == 6
    grid = [float(row.split(",")[0]) for row in lines[1:]]
    assert_allclose(grid, [-1.0, -0.5, 0.0, 0.5, 1.0])


def test_sweep_theta_csv_and_svg(model_file, tmp_path):
    out = tmp_path / "sw"
    rc = main(["sweep", "--model", model_file, "--mode", "theta",
               "--range", "0.5:8:4", "--log", "--svg", "--out", str(out)])
    assert rc == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "parameter,h,H,W,ratio"
    assert len(lines) == 5
    w = [float(row.split(",")[3]) for row in lines[1:]]
    assert all(a >= b for a, b in zip(w, w[1:]))
    svg = (out / "sweep.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


@pytest.mark.parametrize("mode", ["H", "theta", "gamma"])
def test_sweep_draws_svg_only_when_written(mode, model_file, tmp_path, monkeypatch):
    import longrun.svg

    drawn = []
    line_plot = longrun.svg.line_plot
    monkeypatch.setattr(longrun.svg, "line_plot",
                        lambda *a, **k: drawn.append(1) or line_plot(*a, **k))
    ranges = {"H": "-1:1:5", "theta": "1,4", "gamma": "0,0.005"}
    argv = ["sweep", "--mode", mode, "--model", model_file, f"--range={ranges[mode]}"]
    assert main(argv + ["--out", str(tmp_path / "plain")]) == 0
    assert drawn == []
    assert sorted(p.name for p in (tmp_path / "plain").iterdir()) == ["manifest.json", "sweep.csv"]
    assert main(argv + ["--svg", "--out", str(tmp_path / "svg")]) == 0
    assert drawn == [1]
    plain, svg = (tmp_path / name / "sweep.csv" for name in ("plain", "svg"))
    assert svg.read_bytes() == plain.read_bytes()


def test_sweep_gamma_csv(model_file, tmp_path):
    out = tmp_path / "sw"
    rc = main(["sweep", "--model", model_file, "--mode", "gamma",
               "--theta", "1", "--range", "0:0.01:3", "--out", str(out)])
    assert rc == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    h = [float(row.split(",")[1]) for row in lines[1:]]
    assert h[-1] < h[0]


def test_sweep_failed_point_warns_and_strict_exits_3(model_file, tmp_path, capsys):
    # at theta = 0 the reference model is unbounded for gamma = 0.01 (w'Dw > 1)
    argv = ["sweep", "--model", model_file, "--mode", "gamma", "--theta", "0",
            "--range", "0.001,0.01"]
    assert main(argv + ["--out", str(tmp_path / "lax")]) == 0
    warnings = capsys.readouterr().err.splitlines()
    assert len(warnings) == 1
    assert warnings[0].startswith("warning: sweep point gamma=0.01: ")
    assert "without bound" in warnings[0]
    rows = (tmp_path / "lax" / "sweep.csv").read_text().splitlines()
    assert rows[0] == "parameter,h,H,W,ratio"
    assert all(np.isfinite(float(v)) for v in rows[1].split(","))
    assert rows[2] == "0.01,nan,nan,nan,nan"

    assert main(argv + ["--strict", "--out", str(tmp_path / "strict")]) == 3
    assert capsys.readouterr().err.splitlines() == warnings
    written = sorted(p.name for p in (tmp_path / "strict").iterdir())
    assert written == ["manifest.json", "sweep.csv"]
    assert ((tmp_path / "strict" / "sweep.csv").read_bytes()
            == (tmp_path / "lax" / "sweep.csv").read_bytes())


@pytest.mark.parametrize("argv", [
    ["optimize", "--theta", "0", "--gamma", "0"],
    ["sweep", "--mode", "gamma", "--theta", "0", "--range", "0,0.05"],
])
def test_library_warning_printed_in_cli_format(argv, model_file, tmp_path, capsys):
    # optimize warns at theta = 0, gamma = 0; gamma = 0.05 fails as a sweep point
    main(argv + ["--model", model_file, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    line = ("warning: theta = 0 and gamma = 0: the criterion reduces to the growth "
            "rate alone; the optimum ignores risk entirely")
    assert err.splitlines().count(line) == 1
    assert "UserWarning" not in err and ".py:" not in err


def test_manifest_replay_is_byte_identical(model_file, tmp_path):
    first = tmp_path / "run1"
    argv = ["sweep", "--model", model_file, "--mode", "theta",
            "--range", "0.5:2:3"]
    assert main(argv + ["--out", str(first)]) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    second = tmp_path / "run2"
    assert main(manifest["argv"] + ["--out", str(second)]) == 0
    assert (first / "sweep.csv").read_bytes() == (second / "sweep.csv").read_bytes()
    assert (first / "manifest.json").read_bytes() == (second / "manifest.json").read_bytes()


def test_simulate_stats_deterministic(model_file, capsys):
    argv = ["simulate", "--model", model_file, "--dt", "0.5", "--horizon", "50",
            "--paths", "128", "--seed", "7"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["config"]["paths"] == 128
    assert np.isfinite(doc["mean_u"])


@pytest.mark.parametrize("argv, name", [
    (["simulate", "--antithetic"], "stats.json"),
    (["moments", "--check"], "moments.json"),
])
def test_default_threads_write_the_bytes_of_one_thread(argv, name, model_file, tmp_path, capsys):
    # three blocks of paths, so a default of more than one thread runs the pool
    argv = argv + ["--model", model_file, "--dt", "0.5", "--horizon", "20", "--paths", "4200"]
    assert main(argv + ["--out", str(tmp_path / "default")]) == 0
    default = capsys.readouterr().out
    assert main(argv + ["--threads", "1", "--out", str(tmp_path / "one")]) == 0
    assert capsys.readouterr().out == default
    assert (tmp_path / "default" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()


def test_simulate_without_out_writes_nothing(model_file, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = main(["simulate", "--model", model_file, "--dt", "0.5", "--horizon", "20",
               "--paths", "16"])
    assert rc == 0
    assert not (tmp_path / "stats.json").exists()
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("h, field", [("1e140", "mean_uxx_se"), ("3e154", "mean_u")])
def test_simulate_overflowed_summary_exit_3(h, field, model_file, tmp_path, capsys):
    # every path's u is finite, but a cross-path statistic overflows
    out = tmp_path / "sim"
    rc = main(["simulate", "--model", model_file, "--h", h, "--H", "0", "--dt", "0.1",
               "--horizon", "100", "--paths", "4", "--out", str(out)])
    assert rc == 3
    captured = capsys.readouterr()
    assert f"numeric failure: non-finite {field}" in captured.err
    assert "warning" not in captured.err
    assert not (out / "stats.json").exists()


@pytest.mark.parametrize("H, field", [("1e150", "variance_rate"), ("1e200", "growth_rate")])
def test_moments_overflowed_moment_exit_3(H, field, model_file, tmp_path, capsys):
    out = tmp_path / "mom"
    rc = main(["moments", "--model", model_file, "--h", "1", "--H", H, "--out", str(out)])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"numeric failure: non-finite {field}" in captured.err
    assert "warning" not in captured.err
    assert not (out / "moments.json").exists()


def test_simulate_dump_paths_needs_out(model_file, capsys):
    rc = main(["simulate", "--model", model_file, "--dump-paths"])
    assert rc == 1
    assert "--out" in capsys.readouterr().err


def test_simulate_dump_paths(model_file, tmp_path, capsys):
    out = tmp_path / "sim"
    rc = main(["simulate", "--model", model_file, "--dt", "0.5", "--horizon", "20",
               "--paths", "16", "--dump-paths", "--out", str(out)])
    assert rc == 0
    lines = (out / "paths.csv").read_text().strip().splitlines()
    assert lines[0] == "path,T,u,x_1"
    assert len(lines) == 17


def test_simulate_discrete_series(model_file, tmp_path, capsys):
    out = tmp_path / "sim"
    rc = main(["simulate", "--model", model_file, "--discrete", "48",
               "--seed", "3", "--out", str(out)])
    assert rc == 0
    lines = (out / "series.csv").read_text().strip().splitlines()
    assert lines[0] == "date,excess_return_1,factor_1"
    assert len(lines) == 49


def test_simulate_discrete_too_short_exit_1(model_file, capsys):
    rc = main(["simulate", "--model", model_file, "--discrete", "12"])
    assert rc == 1


def test_optimize_json(model_file, tmp_path, capsys):
    out = tmp_path / "opt"
    rc = main(["optimize", "--model", model_file, "--theta", "1",
               "--grid-points", "31", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "optimum.json").read_text())
    ref = optimize(load_model(model_file),
                   CriterionParams(theta=1.0, gamma=np.zeros(1)),
                   OptimizerConfig(grid_points=31))
    assert_allclose(doc["h"][0], ref.strategy.h[0], rtol=1e-12)
    assert_allclose(doc["H"][0][0], ref.strategy.H[0, 0], rtol=1e-12)
    assert_allclose(doc["value"], ref.value, rtol=1e-12)
    # close to the optimum of the bundled-constants model
    assert_allclose(doc["h"][0], 0.1026, atol=5e-3)
    assert_allclose(doc["H"][0][0], -0.1296, atol=5e-3)
    assert doc["stationary"] is True


def test_optimize_unbounded_exit_3(model_file, capsys):
    rc = main(["optimize", "--model", model_file, "--theta", "0",
               "--gamma", "0.05", "--grid-points", "21"])
    assert rc == 3
    assert "without bound" in capsys.readouterr().err


def test_optimize_drops_overflowed_scan_rows(model_file, capsys):
    # five points from -1e200 keep H = 0, the one finite scan row: the ascent
    # from it reaches the optimum of the default box, with no raw warning
    expected = optimize(load_model(model_file), CriterionParams(theta=1.0, gamma=np.zeros(1)))
    for bounds in ("-1e200:1e200", "-1e100:1e100"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["optimize", "--model", model_file, "--theta", "1",
                       f"--grid-bounds={bounds}", "--grid-points", "5"])
        out, err = capsys.readouterr()
        assert rc == 0, (bounds, err)
        assert err == ""
        doc = json.loads(out)
        assert doc["message"] == "converged"
        # the ascents start apart and stop at |gradient| <= 1e-9, which fixes
        # the optimum to about 1e-8 relative
        assert_allclose(doc["h"], expected.strategy.h, rtol=1e-6)
        assert_allclose(doc["H"], expected.strategy.H, rtol=1e-6)


@pytest.mark.parametrize("bounds", ["-1e200:1e200", "-1e100:1e100", "1e100:2e100"])
def test_optimize_all_scan_rows_overflow_exit_3(bounds, model_file, capsys):
    # four points from -1e200 (or from +1e100) leave no finite scan row
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["optimize", "--model", model_file, "--theta", "1",
                   f"--grid-bounds={bounds}", "--grid-points", "4"])
    err = capsys.readouterr().err
    assert rc == 3
    assert err == ("longrun: numeric failure: "
                   "h* or W overflows at every scan point: no finite start\n")


def test_optimize_bad_bounds_exit_1(model_file, capsys):
    rc = main(["optimize", "--model", model_file, "--grid-bounds", "5"])
    assert rc == 1
    assert "grid-bounds" in capsys.readouterr().err


def test_parser_reused_after_usage_errors(model_file, tmp_path, capsys):
    # main builds its parser once per process; usage errors must leave it as built
    sweep = ["sweep", "--mode", "theta", "--model", model_file, "--range", "1,4", "--svg"]
    assert main([*sweep, "--bogus"]) == 1
    assert main([*sweep, "--h", "5"]) == 1
    assert main([*sweep, "--out", str(tmp_path / "here")]) == 0
    proc = subprocess.run([sys.executable, "-m", "longrun.cli", *sweep,
                           "--out", str(tmp_path / "fresh")], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    names = sorted(p.name for p in (tmp_path / "fresh").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "here").iterdir())
    assert names == ["manifest.json", "sweep.csv", "sweep.svg"]
    for name in names:
        assert (tmp_path / "here" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()


def test_console_script_help():
    proc = subprocess.run([sys.executable, "-m", "longrun.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for verb in ("calibrate", "moments", "sweep", "simulate", "optimize"):
        assert verb in proc.stdout


def test_optimize_runaway_model_exit_3(tmp_path, capsys):
    # theta = 0 on a model where w'Dw > 1: no finite optimum exists
    path = tmp_path / "model.json"
    save_model(random_stable_model(np.random.default_rng(0), 2, 2), path)
    rc = main(["optimize", "--model", str(path), "--theta", "0", "--gamma", "0.5"])
    assert rc == 3
    assert "without bound" in capsys.readouterr().err


def test_calibrate_rejects_threads_exit_1(capsys):
    assert main(["calibrate", "--from-tables", "--threads", "2"]) == 1
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["calibrate", "--from-tables", "--seed", "1"],
    ["calibrate", "--from-tables", "--strict"],
    ["calibrate", "--from-tables", "--model", "m.json"],
    ["calibrate", "--from-tables", "in.csv"],
    ["sweep", "--mode", "H", "--threads", "2"],
    ["optimize", "--threads", "2"],
    ["optimize", "--strict"],
    ["moments", "--strict"],
    ["simulate", "--strict"],
])
def test_unread_flags_rejected_exit_1(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1


@pytest.mark.parametrize("argv", [
    ["simulate", "--paths", "1"],
    ["simulate", "--dt", "0"],
    ["simulate", "--antithetic", "--paths", "5"],
    ["simulate", "--horizon", "0.01"],
    ["simulate", "--threads", "0", "--horizon", "1", "--paths", "4"],
    ["moments", "--check", "--paths", "1"],
    ["moments", "--check", "--threads", "0", "--horizon", "1", "--paths", "4"],
    ["sweep", "--mode", "theta", "--range", ","],
    ["optimize", "--theta", "-1"],
    ["optimize", "--theta", "nan"],
    ["sweep", "--mode", "gamma", "--theta", "-1"],
    ["sweep", "--mode", "theta", "--range=-1,1"],
    ["simulate", "--discrete", "30", "--paths", "1", "--dt", "0", "--threads", "0"],
    ["simulate", "--discrete", "30", "--h", "2"],
    ["moments", "--paths", "1", "--dt", "0", "--threads", "0"],
    ["moments", "--pa", "5"],
    ["moments", "--seed", "3"],
    ["sweep", "--mode", "H", "--theta", "-1", "--gamma", "nan"],
    ["sweep", "--mode", "gamma", "--h", "5", "--gamma", "7", "--range", "0,0.01"],
    ["sweep", "--mode", "theta", "--h", "5", "--range", "1"],
    ["sweep", "--mode", "H", "--strict"],
])
def test_rejected_flag_values_exit_1(argv, model_file, tmp_path, capsys):
    assert main(argv + ["--model", model_file, "--out", str(tmp_path / "o")]) == 1
    assert "longrun: error:" in capsys.readouterr().err


def test_document_schemas(model_file, tmp_path, capsys):
    """Key sets and column headers of the CLI documents, as first released."""
    wide = tmp_path / "wide.json"
    save_model(random_stable_model(np.random.default_rng(5), 1, 2), wide)
    moment_keys = ["growth_rate", "variance_rate", "wealth_factor_cov", "factor_cov",
                   "shock_loading", "second_moment_offset", "second_moment_slope"]

    assert main(["moments", "--model", model_file, "--out", str(tmp_path / "mom")]) == 0
    printed = [line.split(" ", 1)[0] for line in capsys.readouterr().out.splitlines()]
    assert printed == moment_keys
    doc = json.loads((tmp_path / "mom" / "moments.json").read_text())
    assert set(doc) == {*moment_keys, "strategy"}
    assert set(doc["strategy"]) == {"h", "H"}

    assert main(["simulate", "--model", str(wide), "--dt", "0.5", "--horizon", "5",
                 "--paths", "4", "--dump-paths", "--out", str(tmp_path / "sim")]) == 0
    doc = json.loads((tmp_path / "sim" / "stats.json").read_text())
    assert set(doc) == {"config", "effective_horizon", "mean_u", "mean_u_se", "var_u",
                        "var_u_se", "cov_ux", "cov_ux_se", "mean_uxx", "mean_uxx_se",
                        "strategy"}
    assert set(doc["config"]) == {"dt", "horizon", "paths", "seed", "factor_scheme",
                                  "antithetic", "stationary_start"}
    header = (tmp_path / "sim" / "paths.csv").read_text().splitlines()[0]
    assert header == "path,T,u,x_1,x_2"

    assert main(["optimize", "--model", model_file, "--grid-points", "11",
                 "--out", str(tmp_path / "opt")]) == 0
    doc = json.loads((tmp_path / "opt" / "optimum.json").read_text())
    assert set(doc) == {"theta", "gamma", "h", "H", "value", "stationary", "gradient_norm",
                        "evaluations", "message"}

    report = json.loads((Path(model_file).parent / "report.json").read_text())
    assert set(report["discrete"]) == {"nobs", "factor_means", "return_const", "return_slope",
                                       "return_tstats", "factor_const", "persistence",
                                       "factor_tstats", "innovation_cov"}

    assert main(["sweep", "--model", str(wide), "--mode", "theta", "--range", "1",
                 "--out", str(tmp_path / "sw")]) == 0
    header = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()[0]
    assert header == "parameter,h_1,H_1_1,H_1_2,W"


def test_negative_seed_exit_0(tmp_path, capsys):
    # 2 x 2: the seed reaches the Latin hypercube scan, taken modulo 2**64
    path = tmp_path / "m22.json"
    save_model(random_stable_model(np.random.default_rng(0), 2, 2), path)
    assert main(["optimize", "--model", str(path), "--seed", "-1"]) == 0
    assert main(["sweep", "--mode", "theta", "--model", str(path), "--seed", "-1",
                 "--range", "1,4", "--out", str(tmp_path / "sweep")]) == 0
