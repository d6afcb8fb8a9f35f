"""Command-line behavior: config precedence, file formats, exit codes,
determinism, stream tailing."""

import csv
import json
import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import sparsid.cli as cli
from sparsid import DictionarySpec, check_pe
from sparsid.cli import (
    ConfigError,
    RunConfig,
    build_parser,
    main,
    resolve_config,
    run_fit,
)


def parse(args):
    return resolve_config(build_parser().parse_args(args))


def write_linear_stream(path, n=160, m=3, seed=0, noise=0.0, header=None):
    """CSV of a noiseless (or noisy) linear system y = x @ w."""
    rng = np.random.default_rng(seed)
    w = np.array([4.0, 0.0, -2.0][:m])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header or (["t"] + [f"x{i+1}" for i in range(m)] + ["y1"]))
        for i in range(n):
            x = rng.normal(size=m)
            y = float(x @ w) + noise * float(rng.normal())
            writer.writerow([float(i)] + [repr(float(v)) for v in x] + [repr(y)])
    return w


# ------------------------------------------------------------------ config


def test_flags_override_config_file(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"window": 99, "xi": 0.5, "policy": "reject"}))
    cfg = parse(["--config", str(cfg_path), "--window", "42"])
    assert cfg.window == 42  # flag wins
    assert cfg.xi == 0.5  # file survives where no flag was given
    assert cfg.policy == "reject"


def test_unknown_config_key_rejected(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"windoww": 10}))
    with pytest.raises(ConfigError):
        parse(["--config", str(cfg_path)])
    # the CLI runs one single-threaded loop; there is no pipeline choice
    cfg_path.write_text(json.dumps({"pipeline": "single"}))
    with pytest.raises(ConfigError):
        parse(["--config", str(cfg_path)])
    # the condition is always audited against the literal forgotten block
    cfg_path.write_text(json.dumps({"condition_on_discounted": True}))
    with pytest.raises(ConfigError):
        parse(["--config", str(cfg_path)])


def test_malformed_config_rejected(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text("{not json")
    with pytest.raises(ConfigError):
        parse(["--config", str(cfg_path)])
    with pytest.raises(ConfigError):
        parse(["--mode", "teleport"])


@pytest.mark.parametrize(
    "payload",
    [
        {"window": 200.5},
        {"batch_in": 1.5},
        {"degree": 2.0},
        {"degree": True},
        {"window": None},
        {"xi": "0.9"},
        {"xi": None},
        {"include_bias": "no"},
        {"include_bias": 0},
        {"truth": 3},
        {"noise_variances": "1.0"},
        {"noise_variances": [1.0, True]},
        {"noise_variances": [[1.0]]},
    ],
)
def test_config_value_types_checked(tmp_path, linear_csv, payload):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError):
        parse(["--config", str(cfg_path)])
    out = tmp_path / "out"
    assert main(["--mode", "fit", "--input", str(linear_csv[0]), "--output", str(out),
                 "--config", str(cfg_path)]) == 2
    assert not out.exists()


def test_config_value_types_accepted(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({
        "xi": 1, "threshold": 0, "switch_at": 5, "refresh_every": None,
        "include_bias": False, "noise_variances": [1, 0.5],
    }))
    cfg = parse(["--config", str(cfg_path)])
    assert cfg.xi == 1 and cfg.include_bias is False and cfg.refresh_every is None
    assert cfg.noise_variances == [1, 0.5]


def test_run_config_defaults():
    cfg = RunConfig()
    assert cfg.mode == "fit"
    assert cfg.window == 200


# ---------------------------------------------------------------- simulate


def test_simulate_case1_row_count(tmp_path):
    out = tmp_path / "sim"
    code = main(
        ["--mode", "simulate", "--case", "case1", "--m", "10", "--n", "200",
         "--seed", "7", "--output", str(out)]
    )
    assert code == 0
    rows = (out / "data.csv").read_text().strip().split("\n")
    assert len(rows) == 201  # header + n
    assert rows[0] == "t," + ",".join(f"x{i+1}" for i in range(10)) + ",y1"
    truth = json.loads((out / "truth.json").read_text())
    assert truth["m"] == 10
    assert len(truth["segments"][0]["coeffs"]) == 10


def test_simulate_lorenz_row_count(tmp_path):
    out = tmp_path / "sim"
    code = main(
        ["--mode", "simulate", "--case", "lorenz", "--dt", "0.01", "--t-end", "2.0",
         "--output", str(out)]
    )
    assert code == 0
    rows = (out / "data.csv").read_text().strip().split("\n")
    assert len(rows) == 202  # header + 201 steps
    assert rows[0] == "t,x1,x2,x3,y1,y2,y3"


def test_simulate_rejects_bad_dt(tmp_path):
    out = tmp_path / "sim"
    assert main(["--mode", "simulate", "--case", "lorenz", "--dt", "0",
                 "--output", str(out)]) == 2
    assert not out.exists()  # nothing written on config errors
    # a NaN noise level would pass `< 0` and simulate a noiseless stream
    for noise in (float("nan"), float("inf"), -1.0):
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps({"lorenz_noise_std": noise}))
        assert main(["--mode", "simulate", "--case", "lorenz", "--t-end", "1.0",
                     "--config", str(cfg_path), "--output", str(out)]) == 2
        assert not out.exists()


# --------------------------------------------------------------------- fit


@pytest.fixture
def linear_csv(tmp_path):
    path = tmp_path / "data.csv"
    w = write_linear_stream(path, n=160, m=3, seed=1)
    return path, w


def fit_args(path, out, extra=()):
    return [
        "--mode", "fit", "--input", str(path), "--output", str(out),
        "--window", "60", "--batch-in", "5", "--forget", "5",
        "--degree", "1", "--threshold", "0.5",
    ] + list(extra)


def write_fit_config(tmp_path, **kw):
    payload = {"include_bias": False, "noise_variances": 1e-4}
    payload.update(kw)
    path = tmp_path / "fit.json"
    path.write_text(json.dumps(payload))
    return path


def test_fit_bookkeeping_and_recovery(tmp_path, linear_csv):
    path, w = linear_csv
    cfg = write_fit_config(tmp_path)
    out = tmp_path / "fit"
    assert main(fit_args(path, out, ["--config", str(cfg)])) == 0
    records = [json.loads(l) for l in (out / "steps.jsonl").read_text().splitlines()]
    assert len(records) == (160 - 60) // 5
    assert all(r["accepted"] for r in records)
    final = np.array(records[-1]["coef_mean"][0])
    np.testing.assert_allclose(final, w, atol=1e-3)  # noiseless stream
    equations = (out / "equations.txt").read_text().strip()
    assert equations.startswith("dx1/dt = 4.000·x1")
    assert "x2" not in equations  # zero coefficient falls below threshold
    assert not (out / "errors.csv").exists()  # no truth sidecar present


def test_fit_reads_truth_sidecar(tmp_path):
    sim = tmp_path / "sim"
    assert main(["--mode", "simulate", "--case", "case1", "--m", "6", "--n", "200",
                 "--seed", "3", "--output", str(sim)]) == 0
    cfg = write_fit_config(tmp_path, noise_variances=0.1)
    out = tmp_path / "fit"
    assert main(fit_args(sim / "data.csv", out, ["--config", str(cfg)])) == 0
    lines = (out / "errors.csv").read_text().strip().split("\n")
    assert lines[0].startswith("t,l2_error,abs_err_1")
    assert len(lines) == 1 + (200 - 60) // 5


def test_fit_exit_codes(tmp_path, linear_csv):
    path, _ = linear_csv
    out = tmp_path / "x"
    assert main(["--mode", "fit", "--input", str(tmp_path / "nope.csv"),
                 "--output", str(out)]) == 3
    assert main(fit_args(path, out, ["--policy", "bogus"])) == 2
    # two samples cannot identify three columns
    assert main(fit_args(path, out, ["--config", str(write_fit_config(tmp_path)),
                                     "--window", "2", "--batch-in", "1",
                                     "--forget", "1"])) == 2
    # forgetting more than arrives would drain the window, in either mode
    for mode in ("fit", "monitor"):
        args = fit_args(path, out, ["--batch-in", "1", "--forget", "2"])
        args[1] = mode
        assert main(args) == 2
    # constant states: init condition fails under the strict policy
    flat = tmp_path / "flat.csv"
    with open(flat, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "x1", "x2", "y1"])
        for i in range(80):
            writer.writerow([float(i), 1.0, 2.0, 3.0])
    cfg = write_fit_config(tmp_path)
    assert main(fit_args(flat, out, ["--config", str(cfg), "--policy", "reject"])) == 4
    # bad render threshold or excitation level: exit 2 before any input is read
    assert main(fit_args(tmp_path / "nope.csv", out, ["--threshold", "-1"])) == 2
    assert main(fit_args(tmp_path / "nope.csv", out, ["--threshold", "nan"])) == 2
    assert main(fit_args(tmp_path / "nope.csv", out, ["--threshold", "inf"])) == 2
    for alpha1 in (0.0, -1e-6, float("nan"), float("inf")):
        cfg = write_fit_config(tmp_path, alpha1=alpha1)
        args = fit_args(path, tmp_path / "mon", ["--config", str(cfg)])
        args[1] = "monitor"
        assert main(args) == 2
        assert not (tmp_path / "mon").exists()
    # a NaN idle timeout would pass `<= 0` and tail the input forever
    for idle in (float("nan"), float("inf"), 0.0):
        cfg = write_fit_config(tmp_path, idle_timeout=idle)
        args = fit_args(path, tmp_path / "str", ["--config", str(cfg)])
        args[1] = "stream"
        assert main(args) == 2
        assert not (tmp_path / "str").exists()


def test_fit_rejects_malformed_rows(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,x1,y1\n0.0,1.0,2.0\n1.0,oops,2.0\n")
    assert main(["--mode", "fit", "--input", str(bad), "--output",
                 str(tmp_path / "o"), "--window", "2"]) == 3
    short = tmp_path / "short.csv"
    short.write_text("t,x1,y1\n0.0,1.0\n")
    assert main(["--mode", "fit", "--input", str(short), "--output",
                 str(tmp_path / "o2"), "--window", "1"]) == 3
    headerless = tmp_path / "headerless.csv"
    headerless.write_text("0.0,1.0,2.0\n1.0,1.5,2.5\n")
    assert main(["--mode", "fit", "--input", str(headerless), "--output",
                 str(tmp_path / "o3"), "--window", "1"]) == 3


def test_fit_requires_enough_rows_for_warmup(tmp_path):
    path = tmp_path / "tiny.csv"
    write_linear_stream(path, n=30, m=2, seed=0)
    for mode in ("fit", "monitor"):
        assert main(["--mode", mode, "--input", str(path), "--output",
                     str(tmp_path / mode), "--window", "60"]) == 3


# ------------------------------------------------------------ determinism


def test_rerun_is_byte_identical(tmp_path, linear_csv):
    path, _ = linear_csv
    cfg = write_fit_config(tmp_path)
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(fit_args(path, out, ["--config", str(cfg)])) == 0
        blobs.append((out / "steps.jsonl").read_bytes())
    assert blobs[0] == blobs[1]


# ----------------------------------------------------------------- stream


def test_stream_mode_tails_growing_file(tmp_path, linear_csv):
    path, _ = linear_csv
    full = path.read_text().splitlines(keepends=True)
    grow = tmp_path / "grow.csv"
    grow.write_text("".join(full[:100]))

    def appender():
        time.sleep(0.3)
        with open(grow, "a") as fh:
            fh.writelines(full[100:])

    cfg = write_fit_config(tmp_path, idle_timeout=1.0)
    out_stream = tmp_path / "stream"
    thread = threading.Thread(target=appender)
    thread.start()
    args = fit_args(grow, out_stream, ["--config", str(cfg)])
    args[1] = "stream"
    code = main(args)
    thread.join()
    assert code == 0

    out_fit = tmp_path / "fitref"
    assert main(fit_args(path, out_fit, ["--config", str(cfg)])) == 0
    assert (out_stream / "steps.jsonl").read_bytes() == (
        out_fit / "steps.jsonl"
    ).read_bytes()


class FakeClock:
    """Monotonic clock whose sleeps overshoot, as a loaded host's do."""

    def __init__(self, overshoot):
        self.now = 0.0
        self.overshoot = overshoot
        self.sleeps = 0

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps += 1
        self.now += seconds * self.overshoot


def test_stream_idle_timeout_uses_elapsed_time(tmp_path, monkeypatch):
    path = tmp_path / "live.csv"
    path.write_text("t,x1,y1\n0.0,1.0,2.0\n1.0,1.5")  # last line still torn
    clock = FakeClock(overshoot=8.0)
    monkeypatch.setattr(cli, "time", clock)
    lines = list(cli._follow_lines(str(path), idle_timeout=1.0, poll=0.05))
    assert lines == ["t,x1,y1\n", "0.0,1.0,2.0\n", "1.0,1.5"]
    # each 0.05 s poll lasts 0.4 s, so 1 s of idleness takes 3 polls, not 20
    assert clock.sleeps == 3


# ---------------------------------------------------------------- monitor


def test_monitor_emits_diagnostics(tmp_path, linear_csv):
    path, _ = linear_csv
    out = tmp_path / "mon"
    code = main(
        ["--mode", "monitor", "--input", str(path), "--output", str(out),
         "--window", "60", "--batch-in", "5", "--forget", "5", "--degree", "1",
         "--config", str(write_fit_config(tmp_path))]
    )
    assert code == 0
    records = [json.loads(l) for l in (out / "monitor.jsonl").read_text().splitlines()]
    assert len(records) == (160 - 60) // 5
    assert set(records[0]) == {
        "step", "t", "classification", "kappa_min", "kappa_max",
        "pe_min_avg_eig", "pe_max_avg_eig", "pe_satisfied",
    }
    assert all(r["pe_satisfied"] for r in records)  # gaussian states excite


@pytest.fixture(scope="module")
def stalling_stream(tmp_path_factory):
    """CSV of a noisy linear system whose states sit at zero for a stretch
    longer than any window below; returns (path, states)."""
    rng = np.random.default_rng(5)
    states = rng.normal(size=(100, 2))
    states[40:70] = 0.0
    path = tmp_path_factory.mktemp("stall") / "data.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "x1", "x2", "y1"])
        for i, x in enumerate(states):
            y = float(3.0 * x[0] - 2.0 * x[1] + 0.05 * rng.normal())
            writer.writerow([float(i), repr(float(x[0])), repr(float(x[1])), repr(y)])
    return path, states


@pytest.mark.parametrize(
    "window,batch_in,forget",
    [
        (window, batch_in, forget)
        for window in (8, 13, 20)
        for batch_in in (1, 3, 6, 25)
        for forget in range(min(batch_in, window) + 1)
    ],
)
def test_monitor_slides_its_window_as_fit_does(
    tmp_path, stalling_stream, window, batch_in, forget
):
    path, states = stalling_stream
    cfg = write_fit_config(tmp_path, theta_mode="fixed", include_bias=True)
    outputs = {}
    for mode in ("fit", "monitor"):
        out = tmp_path / mode
        assert main(["--mode", mode, "--input", str(path), "--output", str(out),
                     "--window", str(window), "--batch-in", str(batch_in),
                     "--forget", str(forget), "--degree", "1", "--policy", "warn",
                     "--config", str(cfg)]) == 0
        name = "steps.jsonl" if mode == "fit" else "monitor.jsonl"
        outputs[mode] = [json.loads(l) for l in (out / name).read_text().splitlines()]
    fit, mon = outputs["fit"], outputs["monitor"]
    assert len(fit) == len(mon) == (len(states) - window) // batch_in
    spec = DictionarySpec(state_dim=2, poly_degree=1, include_bias=True)
    for k, (f, m) in enumerate(zip(fit, mon), start=1):
        assert f["accepted"]
        for key in ("classification", "kappa_min", "kappa_max"):
            assert m[key] == f[key], (k, key)
        # the window after step k is exactly the last `window` samples read
        end = window + k * batch_in
        pe = check_pe(spec, states[end - window : end], alpha1=1e-6)
        assert m["pe_max_avg_eig"] == pytest.approx(pe.max_avg_eig, rel=1e-9)
        assert m["pe_min_avg_eig"] == pytest.approx(pe.min_avg_eig, rel=1e-9)
        assert m["pe_satisfied"] == pe.satisfied


def test_only_fit_loads_scipy(tmp_path):
    """Monitor and simulate runs never factor a posterior, so they never
    import scipy; a fit run imports it at its first factorization."""
    script = textwrap.dedent(
        """
        import json, sys
        from sparsid.cli import main
        assert main(["--mode", "simulate", "--case", "lorenz", "--t-end", "2.0",
                     "--output", "sim"]) == 0
        with open("run.json", "w") as fh:
            json.dump({"window": 50, "batch_in": 1, "forget": 1}, fh)
        run = ["--config", "run.json", "--input", "sim/data.csv"]
        assert main(["--mode", "monitor", "--output", "mon"] + run) == 0
        print(json.dumps("scipy.linalg" in sys.modules))
        assert main(["--mode", "fit", "--output", "fit"] + run) == 0
        print(json.dumps("scipy.linalg" in sys.modules))
        """
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["false", "true"]
    assert (tmp_path / "mon" / "monitor.jsonl").stat().st_size > 0
    for name in ("steps.jsonl", "equations.txt"):
        assert (tmp_path / "fit" / name).stat().st_size > 0


def test_run_fit_rejects_missing_arguments():
    with pytest.raises(ConfigError):
        run_fit(RunConfig(mode="fit"))
