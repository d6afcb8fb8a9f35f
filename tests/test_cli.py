"""Command-line behavior: config precedence, file formats, exit codes,
determinism, stream tailing."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import textwrap
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sparsid.cli as cli
import sparsid.recursion as rec
from sparsid import (
    DictionarySpec,
    NoiseModel,
    RecursionConfig,
    Sample,
    check_pe,
    initial_horseshoe,
)
from sparsid.analyze import read_truth
from sparsid.simulate import MAX_CELLS, LorenzConfig, lorenz_truth_payload
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
    cfg_path.write_bytes(b'{"window": 2\xff00}')  # JSON is UTF-8
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


HUGE = 10**400  # 401 digits: an int too large for a float


@pytest.mark.parametrize("mode", ["fit", "stream", "monitor", "simulate"])
@pytest.mark.parametrize(
    "key,value",
    [("noise_variances", HUGE), ("noise_variances", [1, HUGE]),
     ("initial_scale", HUGE), ("threshold", HUGE)],
    ids=["noise_variances", "noise_variances-list", "initial_scale", "threshold"],
)
def test_int_no_float_holds_is_a_configuration_error(
    tmp_path, linear_csv, capsys, mode, key, value
):
    """A config-file int too large for a float, where a float is expected,
    is a configuration error in every mode: exit 2 with one line, before
    any output."""
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"idle_timeout": 0.1, key: value}))
    out = tmp_path / "out"
    assert main(["--mode", mode, "--input", str(linear_csv[0]), "--output", str(out),
                 "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: config key {key!r}") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("mode", ["fit", "stream", "monitor", "simulate"])
@pytest.mark.parametrize("key", ["window", "batch_in", "degree"])
def test_int_no_index_holds_is_a_configuration_error(tmp_path, linear_csv, capsys, mode, key):
    """A config-file int beyond sys.maxsize, which no array index or
    islice count holds, is a configuration error in every mode: exit 2
    with one line, before any output."""
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"idle_timeout": 0.1, key: HUGE}))
    out = tmp_path / "out"
    assert main(["--mode", mode, "--input", str(linear_csv[0]), "--output", str(out),
                 "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: config key {key!r}") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("mode", ["fit", "stream", "monitor"])
def test_degree_is_checked_by_its_column_count(tmp_path, linear_csv, capsys, mode):
    """A degree whose dictionary the window cannot identify is refused from
    its column count, before any monomial is enumerated (degree 10**9 of 3
    states would be 1.7e26 columns): exit 2 with one line, no output."""
    out = tmp_path / "out"
    assert main(["--mode", mode, "--input", str(linear_csv[0]), "--output", str(out),
                 "--degree", str(10**9), "--window", "60"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: window + batch_in - forget must exceed")
    assert err.count("\n") == 1 and not out.exists()


@pytest.mark.parametrize("mode", ["fit", "stream", "monitor"])
def test_batch_in_no_array_holds_ends_the_run_with_no_step(tmp_path, linear_csv, capsys, mode):
    """A batch_in within sys.maxsize but far past the input (2**60, whose
    k x batch_in x n_x shape no array holds even at k = 0) takes the warmup,
    finds no full batch and exits 0 with no records."""
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"idle_timeout": 0.1}))
    out = tmp_path / "out"
    assert main(["--mode", mode, "--input", str(linear_csv[0]), "--output", str(out),
                 "--window", "60", "--batch-in", str(2**60), "--forget", "0",
                 "--config", str(cfg_path)]) == 0
    assert capsys.readouterr().err == ""
    records = "monitor.jsonl" if mode == "monitor" else "steps.jsonl"
    assert (out / records).read_bytes() == b""


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
    # numpy's SeedSequence takes no negative seed
    for case in ("case1", "lorenz"):
        assert main(["--mode", "simulate", "--case", case, "--seed", "-1",
                     "--t-end", "1.0", "--n", "20", "--output", str(out)]) == 2
        assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["--case", "lorenz", "--t-end", "1e300", "--dt", "1e-300"],  # t_end / dt is inf
        ["--case", "lorenz", "--t-end", "1e15"],
        ["--case", "lorenz", "--t-end", "1e17"],
        ["--case", "case1", "--m", str(2**62), "--n", "10"],
        ["--case", "case1", "--n", str(2**62), "--m", "2"],
    ],
    ids=["lorenz-inf-steps", "lorenz-1e15", "lorenz-1e17", "case1-m", "case1-n"],
)
def test_simulation_past_the_cell_limit_is_a_configuration_error(tmp_path, capsys, flags):
    """A scenario whose stream no array holds, or whose step count is not
    finite, is refused before any array is made: exit 2 with one line and
    no output directory."""
    out = tmp_path / "sim"
    assert main(["--mode", "simulate", *flags, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err and not out.exists()
    if "1e300" not in flags:
        assert f"MAX_CELLS = {MAX_CELLS}" in err


def test_diverging_simulation_is_a_configuration_error(tmp_path, capsys):
    """dt = 0.5 is too long a step for the Lorenz dynamics, and the
    integration blows up at t = 2: exit 2 with one line that names t and
    dt, and no output directory."""
    out = tmp_path / "sim"
    assert main(["--mode", "simulate", "--case", "lorenz", "--dt", "0.5",
                 "--t-end", "100", "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (
        "configuration error: integration diverged at t=2.000 with dt=0.5; "
        "use a smaller dt\n"
    )
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


def test_fit_rejects_mismatched_truth(tmp_path, capsys):
    sim = tmp_path / "sim"
    assert main(["--mode", "simulate", "--case", "case1", "--m", "3", "--n", "400",
                 "--output", str(sim)]) == 0
    # 3 true coefficients against the 10 columns of a degree-2 dictionary
    out = tmp_path / "fit"
    assert main(["--mode", "fit", "--input", str(sim / "data.csv"),
                 "--output", str(out), "--window", "50"]) == 3
    assert "truth has 3 coefficients" in capsys.readouterr().err
    assert not out.exists()  # refused before the stream is read past its header


def ci_lorenz_truth(key: str, index: int, value: float) -> dict:
    """The truth of the CI stream (`ci_stream`), one value replaced."""
    payload = lorenz_truth_payload(LorenzConfig(t_end=3.0))
    payload[key][index] = value
    return payload


@pytest.mark.parametrize(
    "payload",
    [
        {"segments": [{"start_t": 0.0}]},
        {"segments": [{"coeffs": [4.0, 0.0, -2.0]}]},
        {"segments": []},
        {"segments": "none"},
        [1, 2],
        # non-finite values, which would score NaN or infinite errors
        {"segments": [{"start_t": 0.0, "coeffs": [None, None, None]}]},
        {"segments": [{"start_t": 0.0, "coeffs": [math.inf] * 3}]},
        ci_lorenz_truth("k3", 150, math.nan),  # at t = 1.5, scored by step 50
    ],
)
def test_fit_rejects_malformed_truth(tmp_path, capsys, linear_csv, ci_stream, payload):
    """A truth file that is malformed, or holds a time or a coefficient
    that is not finite, exits 3 with one line naming it."""
    path, _ = linear_csv
    (path.parent / "truth.json").write_text(json.dumps(payload))
    cfg = write_fit_config(tmp_path)
    args = fit_args(path, tmp_path / "fit", ["--config", str(cfg)])
    if "case" in payload:  # a Lorenz truth, named by the config key, for the CI stream
        data, _ = ci_stream
        cfg.write_text(json.dumps({"truth": str(path.parent / "truth.json")}))
        args = ["--mode", "fit", "--input", str(data), "--output", str(tmp_path / "fit"),
                "--window", "100", "--batch-in", "1", "--config", str(cfg)]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error: truth file ") and err.count("\n") == 1, err


def test_fit_rejects_truth_starting_after_scored_steps(tmp_path, linear_csv, capsys):
    path, w = linear_csv
    truth = {"segments": [{"start_t": 100.0, "coeffs": w.tolist()}]}
    (path.parent / "truth.json").write_text(json.dumps(truth))
    cfg = write_fit_config(tmp_path)
    assert main(fit_args(path, tmp_path / "fit", ["--config", str(cfg)])) == 3
    assert "no ground truth at t=" in capsys.readouterr().err


def attribute_sizes(obj, prefix="", depth=3) -> dict:
    """len() of every sized attribute of obj, and of theirs down to depth
    levels, by dotted name."""
    names = list(getattr(obj, "__dict__", {})) + list(getattr(type(obj), "__slots__", ()))
    sizes = {}
    for name in names:
        value = getattr(obj, name, None)
        try:
            sizes[prefix + name] = len(value)
        except TypeError:
            pass
        if depth > 1:
            sizes.update(attribute_sizes(value, f"{prefix}{name}.", depth - 1))
    return sizes


def test_fit_keeps_no_estimates_without_truth(tmp_path, linear_csv):
    """No attribute of a fit grows with its step count, with a truth or
    without: fits of 8 and of 20 steps end with containers of one size."""
    path, w = linear_csv
    short = tmp_path / "short.csv"
    short.write_text("".join(path.read_text().splitlines(keepends=True)[: 1 + 100]))
    truth = tmp_path / "coeffs.json"  # not truth.json, which a fit finds itself
    truth.write_text(json.dumps({"segments": [{"start_t": 0.0, "coeffs": w.tolist()}]}))
    for extra in ({}, {"truth": str(truth)}):
        sizes = []
        for data, steps in ((short, 8), (path, 20)):
            out = tmp_path / f"fit-{len(extra)}-{steps}"
            config = write_fit_config(tmp_path, **extra)
            fit = cli._drive(parse(fit_args(data, out, ["--config", str(config)])), cli._Fit)
            assert len((out / "steps.jsonl").read_text().splitlines()) == steps
            assert (out / "errors.csv").exists() == bool(extra)
            sizes.append(attribute_sizes(fit))
        assert sizes[0] == sizes[1], extra


def simulate_lorenz_stream(tmp_path, t_end="3.0"):
    sim = tmp_path / "sim"
    assert main(["--mode", "simulate", "--case", "lorenz", "--t-end", t_end,
                 "--seed", "2", "--output", str(sim)]) == 0
    return sim


def lorenz_beta(labels, k1, k3):
    """The Lorenz coefficients over a dictionary's labels, written out."""
    col = {label: j for j, label in enumerate(labels)}
    beta = np.zeros((3, len(labels)))
    beta[0, col["x1"]], beta[0, col["x2"]] = -k1, k1
    beta[1, col["x1"]], beta[1, col["x2"]], beta[1, col["x1*x3"]] = 28.0, -1.0, -1.0
    beta[2, col["x1*x2"]], beta[2, col["x3"]] = 1.0, -k3
    return beta


def test_fit_scores_lorenz_truth(tmp_path):
    sim = simulate_lorenz_stream(tmp_path)
    out = tmp_path / "fit"
    assert main(["--mode", "fit", "--input", str(sim / "data.csv"), "--output", str(out),
                 "--window", "100", "--batch-in", "5", "--forget", "5"]) == 0
    truth = json.loads((sim / "truth.json").read_text())
    records = [json.loads(l) for l in (out / "steps.jsonl").read_text().splitlines()]
    accepted = [r for r in records if r["accepted"]]
    with open(out / "errors.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(accepted) == (301 - 100) // 5
    labels = DictionarySpec(state_dim=3, poly_degree=2).column_labels
    for record, row in zip(accepted, rows):
        i = truth["t"].index(record["t"])
        beta = lorenz_beta(labels, truth["k1"][i], truth["k3"][i])
        expected = np.linalg.norm(np.array(record["coef_mean"]) - beta)
        assert float(row["t"]) == record["t"]
        assert float(row["l2_error"]) == pytest.approx(expected, rel=1e-12)


def reference_errors_csv(records: list, truth) -> bytes:
    """errors.csv as the fit wrote it when it scored after the run: the
    coefficients of every accepted record stacked and scored in one pass,
    then written with csv."""
    accepted = [r for r in records if r["accepted"]]
    times = np.array([r["t"] for r in accepted], dtype=float)
    est = np.vstack([np.ravel(r["coef_mean"]) for r in accepted])
    true, missing = truth.rows(times)
    assert missing is None
    switches = set((np.flatnonzero((true[1:] != true[:-1]).any(axis=1)) + 1).tolist())
    est -= true
    l2s = np.linalg.norm(est, axis=1)
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(
        ["t", "l2_error"] + [f"abs_err_{j + 1}" for j in range(est.shape[1])] + ["truth_switch"]
    )
    for i, (t, l2, errs) in enumerate(zip(times.tolist(), l2s.tolist(), np.abs(est))):
        writer.writerow([t, l2, *errs.tolist(), int(i in switches)])
    return text.getvalue().encode()


def read_records(out) -> list:
    return [json.loads(line) for line in (out / "steps.jsonl").read_text().splitlines()]


def scored_streams(tmp_path) -> dict:
    """A case1 stream whose truth switches mid-stream and a Lorenz stream:
    each one's data path, fit flags, config-file settings and truth."""
    case1 = tmp_path / "case1"
    (tmp_path / "case1.json").write_text(json.dumps({"switch_at": 150}))
    assert main(["--mode", "simulate", "--case", "case1", "--m", "6", "--n", "300",
                 "--seed", "4", "--config", str(tmp_path / "case1.json"),
                 "--output", str(case1)]) == 0
    lorenz = simulate_lorenz_stream(tmp_path)
    streams = {}
    for name, data, flags, settings, spec, n_y in (
        ("case1", case1, ["--window", "60", "--batch-in", "5", "--forget", "5",
                          "--degree", "1"],
         {"include_bias": False, "noise_variances": 0.1},
         DictionarySpec(state_dim=6, poly_degree=1, include_bias=False), 1),
        ("lorenz", lorenz, ["--window", "100", "--batch-in", "1", "--forget", "1"],
         {}, DictionarySpec(state_dim=3, poly_degree=2), 3),
    ):
        truth = read_truth(json.loads((data / "truth.json").read_text()), spec, n_y)
        streams[name] = (data / "data.csv", flags, settings, truth)
    return streams


def run_scored(stream, mode, data, out, **settings) -> int:
    """Fit or stream one of scored_streams, from data in place of its own."""
    _, flags, base, _ = stream
    config = out.with_name(out.name + ".json")
    config.write_text(json.dumps({**base, "idle_timeout": 0.1, **settings}))
    return main(["--mode", mode, "--input", str(data), "--output", str(out), *flags,
                 "--config", str(config)])


def test_errors_csv_matches_the_batch_scoring(tmp_path, monkeypatch):
    """Scored step by step, errors.csv has the bytes of the old post-run
    scoring, in fit (one to 128 batches a read) and in stream mode."""
    for name, stream in scored_streams(tmp_path).items():
        data, _, _, truth = stream
        for mode, block in (("fit", 1), ("fit", 2), ("fit", 128), ("stream", 128)):
            monkeypatch.setattr(cli, "_BLOCK", block)
            out = tmp_path / f"{name}-{mode}-{block}"
            assert run_scored(stream, mode, data, out) == 0
            records = read_records(out)
            expected = reference_errors_csv(records, truth)
            assert (out / "errors.csv").read_bytes() == expected, (name, mode, block)
        if name == "case1":  # the switch is scored
            assert b",1\r\n" in expected
        assert expected.count(b"\n") == 1 + len(records)


@pytest.mark.parametrize("mode,block", [("fit", 2), ("fit", 128), ("stream", 128)])
def test_stopped_fit_keeps_its_scoring(tmp_path, monkeypatch, capsys, mode, block):
    """A fit that stops on a bad row, or on a step its truth does not cover,
    exits 3 and keeps the records and the errors.csv rows of every step
    before it, also when the stop falls inside a read."""
    monkeypatch.setattr(cli, "_BLOCK", block)
    streams = scored_streams(tmp_path)

    stream = streams["case1"]
    data, _, _, truth = stream
    lines = data.read_text().splitlines(keepends=True)
    bad_row = 60 + 5 * 17 + 2  # inside the batch of step 18
    lines[1 + bad_row] = "oops\n"
    bad = tmp_path / "bad.csv"
    bad.write_text("".join(lines))
    out = tmp_path / "bad"
    assert run_scored(stream, mode, bad, out, truth=str(data.parent / "truth.json")) == 3
    assert f"line {bad_row + 2}:" in capsys.readouterr().err  # the header is line 1
    records = read_records(out)
    assert len(records) == 17
    assert (out / "errors.csv").read_bytes() == reference_errors_csv(records, truth)

    stream = streams["lorenz"]
    data, _, _, truth = stream
    payload = json.loads((data.parent / "truth.json").read_text())
    gap = 100 + 37  # the sample of step 38
    missing = payload["t"][gap]
    for key in ("t", "k1", "k3"):
        del payload[key][gap]
    gapped = tmp_path / "gapped.json"
    gapped.write_text(json.dumps(payload))
    out = tmp_path / "gap"
    assert run_scored(stream, mode, data, out, truth=str(gapped)) == 3
    assert f"no truth sample at t={missing}" in capsys.readouterr().err
    records = read_records(out)
    assert len(records) == 37 and records[-1]["t"] < missing
    assert (out / "errors.csv").read_bytes() == reference_errors_csv(records, truth)


@pytest.mark.parametrize("mode", ["fit", "stream"])
@pytest.mark.parametrize("rerun", ["unscored", "stopped"])
def test_rerun_leaves_no_earlier_outputs(tmp_path, capsys, mode, rerun):
    """A run into a used output directory leaves no errors.csv or
    equations.txt of the earlier run beside its own steps.jsonl: not when it
    scores nothing (its rows have no truth beside them), and not when a bad
    row stops it before it renders its equations."""
    sim = simulate_lorenz_stream(tmp_path)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"idle_timeout": 0.1}))
    out = tmp_path / "out"

    def run(data) -> int:
        return main(["--mode", mode, "--input", str(data), "--output", str(out),
                     "--window", "100", "--batch-in", "1", "--forget", "1",
                     "--config", str(config)])

    assert run(sim / "data.csv") == 0
    assert (out / "errors.csv").exists() and (out / "equations.txt").exists()
    lines = (sim / "data.csv").read_text().splitlines(keepends=True)
    if rerun == "unscored":
        data = tmp_path / "bare" / "data.csv"
        data.parent.mkdir()
        data.write_text("".join(lines))
        assert run(data) == 0
        assert not (out / "errors.csv").exists()
        assert (out / "equations.txt").exists()
    else:
        lines[199] = "oops\n"  # line 200, after the warmup
        data = sim / "bad.csv"  # beside the truth: the steps before it are scored
        data.write_text("".join(lines))
        assert run(data) == 3
        assert "line 200:" in capsys.readouterr().err
        records = read_records(out)
        assert len(records) == 198 - 100  # the data rows before it, less the warmup
        scored = (out / "errors.csv").read_text().splitlines()
        assert len(scored) == 1 + sum(r["accepted"] for r in records)
        assert not (out / "equations.txt").exists()


def test_truth_that_scores_nothing_writes_the_header(tmp_path):
    """A fit and a stream that load a truth and accept no step each write an
    errors.csv of the header alone, the same bytes from both, so a truth
    that scored nothing reads apart from one that was never found."""
    sim = simulate_lorenz_stream(tmp_path)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"idle_timeout": 0.1}))
    written = []
    for mode in ("fit", "stream"):
        out = tmp_path / mode
        assert main(["--mode", mode, "--input", str(sim / "data.csv"), "--output", str(out),
                     "--window", "100", "--batch-in", "1", "--policy", "reject",
                     "--config", str(config)]) == 0
        records = read_records(out)
        assert len(records) == 201 and not any(r["accepted"] for r in records)
        written.append((out / "errors.csv").read_bytes())
    abs_errs = ",".join(f"abs_err_{j}" for j in range(1, 31))  # 3 outputs x 10 columns
    assert written[0] == f"t,l2_error,{abs_errs},truth_switch\r\n".encode()
    assert written[1] == written[0]


@pytest.mark.parametrize("batch_in,extra_rows", [(1, 0), (5, 4)])
def test_input_ending_within_its_first_batch_writes_the_header(
    tmp_path, batch_in, extra_rows
):
    """An input that ends within the first batch after the warmup, with a
    truth beside it, writes the header-only errors.csv of a run that accepts
    no step, in fit and in stream alike, with no records and its
    equations."""
    sim = simulate_lorenz_stream(tmp_path)
    short = tmp_path / "short"
    short.mkdir()
    lines = (sim / "data.csv").read_text().splitlines(keepends=True)
    (short / "data.csv").write_text("".join(lines[: 1 + 100 + extra_rows]))
    (short / "truth.json").write_text((sim / "truth.json").read_text())
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"idle_timeout": 0.1}))
    abs_errs = ",".join(f"abs_err_{j}" for j in range(1, 31))  # 3 outputs x 10 columns
    for mode in ("fit", "stream"):
        out = tmp_path / mode
        assert main(["--mode", mode, "--input", str(short / "data.csv"), "--output", str(out),
                     "--window", "100", "--batch-in", str(batch_in),
                     "--config", str(config)]) == 0
        assert (out / "steps.jsonl").read_bytes() == b""
        assert (out / "equations.txt").exists()
        assert (out / "errors.csv").read_bytes() == (
            f"t,l2_error,{abs_errs},truth_switch\r\n".encode()
        )


def test_fit_rejects_truth_of_neither_format(tmp_path, linear_csv, capsys):
    path, _ = linear_csv
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"case": "case1", "m": 3}))
    out = tmp_path / "fit"
    cfg = write_fit_config(tmp_path, truth=str(other))
    assert main(fit_args(path, out, ["--config", str(cfg)])) == 3
    assert 'neither "segments" nor "case": "lorenz"' in capsys.readouterr().err
    assert not out.exists()


def test_fit_rejects_lorenz_truth_of_other_terms(tmp_path, capsys):
    sim = simulate_lorenz_stream(tmp_path, t_end="2.0")
    out = tmp_path / "fit"
    # degree 1 has no x1*x3 or x1*x2 column
    assert main(["--mode", "fit", "--input", str(sim / "data.csv"), "--output", str(out),
                 "--window", "50", "--degree", "1"]) == 3
    assert "are not dictionary columns" in capsys.readouterr().err
    # a two-state stream is not the three-state system
    plane = tmp_path / "plane"
    plane.mkdir()
    write_linear_stream(plane / "data.csv", m=2)
    (plane / "truth.json").write_text((sim / "truth.json").read_text())
    assert main(fit_args(plane / "data.csv", out)) == 3
    assert "needs 3 states" in capsys.readouterr().err
    assert not out.exists()


def test_fit_exit_codes(tmp_path, linear_csv):
    path, _ = linear_csv
    out = tmp_path / "x"
    assert main(["--mode", "fit", "--input", str(tmp_path / "nope.csv"),
                 "--output", str(out)]) == 3
    assert main(fit_args(path, out, ["--policy", "bogus"])) == 2
    # two samples cannot identify three columns: exit 2 in every mode that
    # reads an input, once the header is read and before any output exists;
    # a stream of a header alone exits at once, not after its idle timeout
    header_only = tmp_path / "header.csv"
    header_only.write_text("t,x1,x2,x3,y1\n")
    cfg = write_fit_config(tmp_path, idle_timeout=10.0)
    small = ["--config", str(cfg), "--window", "2", "--batch-in", "1", "--forget", "1"]
    for mode in ("fit", "stream", "monitor"):
        for data in (path, header_only):
            args = fit_args(data, tmp_path / "bad", small)
            args[1] = mode
            started = time.monotonic()
            assert main(args) == 2, (mode, data)
            assert time.monotonic() - started < 5.0, (mode, data)
            assert not (tmp_path / "bad").exists()
    # an empty window or batch; a forget that neither slides the window
    # (batch_in) nor grows it (0), more or fewer than arrive; a negative
    # degree, or degree 0 without the bias column, which leaves no columns:
    # exit 2 in every mode, before the input is opened (no_columns repeats its
    # degree as a flag, which wins over fit_args' --degree 1)
    no_columns = ["--config", str(write_fit_config(tmp_path, degree=0)), "--degree", "0"]
    for mode in ("fit", "stream", "monitor", "simulate"):
        for flags in (["--window", "0"], ["--batch-in", "0"],
                      ["--batch-in", "1", "--forget", "2"],
                      ["--batch-in", "5", "--forget", "3"], ["--degree", "-1"],
                      no_columns):
            args = fit_args(tmp_path / "nope.csv", tmp_path / "bad", flags)
            args[1] = mode
            assert main(args) == 2, (mode, flags)
            assert not (tmp_path / "bad").exists()
    # constant states: init condition fails under the strict policy
    flat = tmp_path / "flat.csv"
    with open(flat, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "x1", "x2", "y1"])
        for i in range(80):
            writer.writerow([float(i), 1.0, 2.0, 3.0])
    cfg = write_fit_config(tmp_path)
    assert main(fit_args(flat, out, ["--config", str(cfg), "--policy", "reject"])) == 4
    # a policy, theta mode or discount no mode accepts: exit 2 in every mode,
    # before any input is read
    for mode in ("fit", "stream", "monitor", "simulate"):
        for flags in (["--policy", "bogus"], ["--theta-mode", "bogus"],
                      ["--xi", "0"], ["--xi", "1.5"], ["--xi", "nan"]):
            args = fit_args(tmp_path / "nope.csv", tmp_path / "bad", flags)
            args[1] = mode
            assert main(args) == 2, (mode, flags)
            assert not (tmp_path / "bad").exists()
    # a refresh cadence, prior scale or noise variance the estimator would
    # refuse: exit 2 in every mode, the monitor's too, which builds no estimator
    for mode in ("fit", "stream", "monitor", "simulate"):
        for key, value in (("refresh_every", 0), ("refresh_every", -3),
                           ("initial_scale", 0.0), ("initial_scale", float("inf")),
                           ("initial_tau", 0), ("initial_tau", -1.0),
                           ("initial_tau", float("nan")), ("noise_variances", []),
                           ("noise_variances", 0.0), ("noise_variances", [1.0, -1.0]),
                           ("noise_variances", [1.0, float("nan")])):
            cfg = write_fit_config(tmp_path, **{key: value})
            args = fit_args(path, tmp_path / "bad", ["--config", str(cfg)])
            args[1] = mode
            assert main(args) == 2, (mode, key, value)
            assert not (tmp_path / "bad").exists()
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


def test_output_naming_a_file_exits_3(tmp_path, linear_csv, capsys):
    """An --output that names a file is an input/output error in every mode."""
    path, _ = linear_csv
    cfg = write_fit_config(tmp_path, idle_timeout=0.1)
    taken = tmp_path / "taken"
    taken.write_text("")
    for mode in ("fit", "stream", "monitor", "simulate"):
        args = fit_args(path, taken, ["--config", str(cfg)])
        args[1] = mode
        assert main(args) == 3, mode
        assert "input error" in capsys.readouterr().err


def test_unwritable_equations_exit_3(tmp_path, linear_csv, capsys, monkeypatch):
    """An equations.txt the fit cannot write is an input/output error: one
    that is a directory when the fit starts, and one that becomes a
    directory while the fit runs."""
    path, _ = linear_csv
    cfg = write_fit_config(tmp_path)
    out = tmp_path / "out"
    (out / "equations.txt").mkdir(parents=True)
    assert main(fit_args(path, out, ["--config", str(cfg)])) == 3
    assert "input error" in capsys.readouterr().err
    (out / "equations.txt").rmdir()
    snapshot = cli.rec.snapshot

    def snapshot_then_block(state):
        (out / "equations.txt").mkdir()
        return snapshot(state)

    monkeypatch.setattr(cli.rec, "snapshot", snapshot_then_block)
    assert main(fit_args(path, out, ["--config", str(cfg)])) == 3
    assert "input error" in capsys.readouterr().err


def test_unwritable_errors_csv_exits_3(tmp_path, linear_csv, capsys, monkeypatch):
    """An errors.csv that becomes a directory while the fit runs is an
    input/output error: exit 3 with one line, and the read whose rows it
    could not take writes no records, since a read is scored first."""
    path, w = linear_csv
    truth = {"segments": [{"start_t": 0.0, "coeffs": w.tolist()}]}
    (path.parent / "truth.json").write_text(json.dumps(truth))
    cfg = write_fit_config(tmp_path)
    out = tmp_path / "out"
    monkeypatch.setattr(cli, "_BLOCK", 2)  # two batches a read
    step_read = cli.rec.step_read
    reads = []

    def step_read_then_block(state, t, x, y):
        reads.append(len(t))
        if len(reads) == 2:
            (out / "errors.csv").unlink()
            (out / "errors.csv").mkdir()
        return step_read(state, t, x, y)

    monkeypatch.setattr(cli.rec, "step_read", step_read_then_block)
    assert main(fit_args(path, out, ["--config", str(cfg)])) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1
    assert [r["step"] for r in read_records(out)] == [1, 2]  # the first read only


def test_fit_rejects_malformed_rows(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,x1,y1\n0.0,1.0,2.0\n1.0,oops,2.0\n")
    assert main(["--mode", "fit", "--input", str(bad), "--output",
                 str(tmp_path / "o"), "--window", "2", "--degree", "1"]) == 3
    short = tmp_path / "short.csv"
    short.write_text("t,x1,y1\n0.0,1.0\n")
    assert main(["--mode", "fit", "--input", str(short), "--output",
                 str(tmp_path / "o2"), "--window", "1", "--degree", "0"]) == 3
    headerless = tmp_path / "headerless.csv"
    headerless.write_text("0.0,1.0,2.0\n1.0,1.5,2.5\n")
    assert main(["--mode", "fit", "--input", str(headerless), "--output",
                 str(tmp_path / "o3"), "--window", "1"]) == 3
    # a cell past the csv module's field size limit is an input error too
    huge = tmp_path / "huge.csv"
    cell = "1" * (csv.field_size_limit() + 1)
    huge.write_text(f"t,x1,y1\n0.0,1.0,2.0\n1.0,{cell},2.0\n")
    assert main(["--mode", "fit", "--input", str(huge), "--output",
                 str(tmp_path / "o4"), "--window", "2", "--degree", "1"]) == 3


BAD_CELLS = {
    "field_count": lambda row, prev_t: row[:-1],
    "non_numeric": lambda row, prev_t: [row[0], "oops"] + row[2:],
    "nan": lambda row, prev_t: row[:2] + ["nan"] + row[3:],
    "inf": lambda row, prev_t: row[:-1] + ["inf"],
    "repeated_t": lambda row, prev_t: [repr(prev_t)] + row[1:],
    "decreasing_t": lambda row, prev_t: [repr(prev_t - 0.5)] + row[1:],
}


@pytest.mark.parametrize("batch_in", [1, 3])
@pytest.mark.parametrize("where", ["warmup", "inside_batch", "batch_boundary"])
@pytest.mark.parametrize("kind", sorted(BAD_CELLS))
def test_bad_row_exits_before_its_batch(
    tmp_path, capsys, monkeypatch, kind, where, batch_in
):
    """A bad row exits 3 naming its line, after the batches before it were
    stepped and written and before its own batch is stepped: in fit and
    monitor runs, and with reads of two batches, where the bad row falls
    inside a read (inside_batch) or in a later read (batch_boundary)."""
    window = 6
    bad = {
        "warmup": window // 2,
        "inside_batch": window + batch_in + batch_in // 2,
        "batch_boundary": window + 2 * batch_in,
    }[where]
    path = tmp_path / "data.csv"
    write_linear_stream(path, n=window + 4 * batch_in, m=2, seed=2)
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    rows[bad] = BAD_CELLS[kind](rows[bad], float(rows[bad - 1][0]))
    path.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")
    for mode, block in [(m, b) for b in (cli._BLOCK, 2) for m in ("fit", "monitor")]:
        monkeypatch.setattr(cli, "_BLOCK", block)
        out = tmp_path / f"{mode}-{block}"
        code = main(["--mode", mode, "--input", str(path), "--output", str(out),
                     "--window", str(window), "--batch-in", str(batch_in),
                     "--forget", str(batch_in), "--degree", "1",
                     "--config", str(write_fit_config(tmp_path))])
        assert code == 3, (mode, block)
        assert f"line {bad + 2}:" in capsys.readouterr().err  # the header is line 1
        records = out / ("steps.jsonl" if mode == "fit" else "monitor.jsonl")
        if where == "warmup":
            assert not records.exists()
        else:
            records = [json.loads(l) for l in records.read_text().splitlines()]
            assert len(records) == (bad - window) // batch_in, (mode, block)
            assert [r["step"] for r in records] == list(range(1, len(records) + 1))


def reference_rows(text: str) -> np.ndarray:
    """Per-row reference parser: the data rows of a CSV text as floats."""
    lines = [line for line in text.splitlines() if line.strip()]
    return np.array([[float(c) for c in line.split(",")] for line in lines[1:]])


@given(
    n_x=st.integers(1, 4),
    n_y=st.integers(1, 3),
    steps=st.lists(st.floats(1e-3, 10.0), max_size=25),
    seed=st.integers(0, 2**16),
    sizes=st.lists(st.integers(1, 7), min_size=1, max_size=8),
    newline=st.sampled_from(["\n", "\r\n"]),
    blanks=st.sets(st.integers(0, 30), max_size=4),
    final_newline=st.booleans(),
)
def test_batch_reader_matches_per_row_parse(
    n_x, n_y, steps, seed, sizes, newline, blanks, final_newline
):
    t = np.cumsum([0.0] + steps)
    values = np.random.default_rng(seed).normal(scale=1e3, size=(len(t), n_x + n_y))
    header = ["t"] + [f"x{i + 1}" for i in range(n_x)]
    header += [f"y{i + 1}" for i in range(n_y)]
    lines = [",".join(header)]
    for i, row in enumerate(np.column_stack([t, values])):
        if i in blanks:
            lines.append("" if i % 2 else "  ")
        lines.append(",".join(repr(float(v)) for v in row))
    text = newline.join(lines) + (newline if final_newline else "")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_bytes(text.encode())
        reader = cli._CsvBlocks(cli._follow_lines(str(path), idle_timeout=0.0))
        assert (reader.n_x, reader.n_y) == (n_x, n_y)
        reads = []
        for k in sizes * (len(t) + 1):
            reads.append(reader.take(k))
            if len(reads[-1][0]) < k:
                break
    expected = reference_rows(text)
    times, states, observations = (np.concatenate(a) for a in zip(*reads))
    assert len(times) == len(t)
    assert times.tolist() == expected[:, 0].tolist()
    assert states.tolist() == expected[:, 1 : 1 + n_x].tolist()
    assert observations.tolist() == expected[:, 1 + n_x :].tolist()


def underscored(cell: str) -> str:
    """The cell with an underscore between its first two adjacent digits,
    which float() reads as the same number."""
    for i in range(len(cell) - 1):
        if cell[i].isdigit() and cell[i + 1].isdigit():
            return f"{cell[: i + 1]}_{cell[i + 1 :]}"
    return cell


# cells that csv and float() read as the number, but loadtxt does not, or
# reads as well; each keeps the value of the float's repr
ODD_CELLS = {
    "quoted": lambda cell: f'"{cell}"',
    "padded": lambda cell: f" {cell}\t ",
    "underscored": underscored,
    "arabic_indic": lambda cell: cell.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
}

# lines that stop the read
BAD_LINES = {
    "hash_line": lambda cells, prev_t: "# " + ",".join(cells),
    "hash_cell": lambda cells, prev_t: "#" + ",".join(cells),
    "inf": lambda cells, prev_t: ",".join(cells[:-1] + ["inf"]),
    "nan": lambda cells, prev_t: ",".join(cells[:1] + ["nan"] + cells[2:]),
    "hash_tail": lambda cells, prev_t: ",".join(cells) + " # a note",
    "trailing_empty": lambda cells, prev_t: ",".join(cells) + ",",
    "repeated_t": lambda cells, prev_t: ",".join([repr(prev_t)] + cells[1:]),
}


def reference_parse(text: str, width: int) -> tuple:
    """Per-row reference reader: csv.reader and float() on one line at a
    time. Returns the data rows before the first bad one and that row's
    error text (None when every row is good)."""
    rows, last_t = [], -np.inf
    for number, line in enumerate(text.splitlines()[1:], start=2):
        row = next(csv.reader([line]), [])
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        where, joined = f"line {number}", ",".join(row)
        if len(row) != width:
            return rows, f"{where}: row has {len(row)} fields, expected {width}"
        try:
            values = [float(cell) for cell in row]
        except ValueError:
            return rows, f"{where}: non-numeric cell in row {joined!r}"
        if not np.isfinite(values).all():
            return rows, f"{where}: non-finite value in row {joined!r}"
        if values[0] <= last_t:
            return rows, (f"{where}: timestamps must be strictly increasing, "
                          f"got t={values[0]} after t={last_t}")
        rows.append(values)
        last_t = values[0]
    return rows, None


@given(
    n_x=st.integers(1, 3),
    n_y=st.integers(1, 2),
    steps=st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=25),
    seed=st.integers(0, 2**16),
    sizes=st.lists(st.integers(1, 7), min_size=1, max_size=8),
    newline=st.sampled_from(["\n", "\r\n"]),
    odd=st.dictionaries(st.integers(0, 120), st.sampled_from(sorted(ODD_CELLS)), max_size=8),
    blanks=st.sets(st.integers(0, 30), max_size=4),
    bad=st.none() | st.tuples(st.integers(1, 30), st.sampled_from(sorted(BAD_LINES))),
)
@example(n_x=1, n_y=1, steps=[1.0] * 9, seed=0, sizes=[4], newline="\n",
         odd={3: "quoted", 7: "underscored"}, blanks={2}, bad=(8, "hash_line"))
def test_batch_reader_reads_odd_cells_as_csv_and_float(
    n_x, n_y, steps, seed, sizes, newline, odd, blanks, bad
):
    """The chunked reader, one np.loadtxt call per chunk with csv.reader
    and float() as its fallback, gives the arrays and the error text, line
    number included, of a per-row csv.reader + float() reader: on quoted,
    padded, underscored and non-ASCII cells, whitespace-only lines, inf and
    nan, `#` lines, cells and tails, an empty trailing field and a repeated
    t."""
    t = np.cumsum([0.0] + steps)
    values = np.random.default_rng(seed).normal(scale=1e3, size=(len(t), n_x + n_y))
    width = 1 + n_x + n_y
    header = ["t"] + [f"x{i + 1}" for i in range(n_x)] + [f"y{i + 1}" for i in range(n_y)]
    lines = [",".join(header)]
    for i, row in enumerate(np.column_stack([t, values]).tolist()):
        if i in blanks:
            lines.append(" \t " if i % 2 else "   ")
        cells = [ODD_CELLS[odd[i * width + j]](repr(v)) if i * width + j in odd else repr(v)
                 for j, v in enumerate(row)]
        if bad is not None and bad[0] == i:
            lines.append(BAD_LINES[bad[1]](cells, float(t[i - 1])))
        else:
            lines.append(",".join(cells))
    text = newline.join(lines) + newline
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_bytes(text.encode())
        reader = cli._CsvBlocks(cli._follow_lines(str(path), idle_timeout=0.0))
        reads = []
        for k in sizes * (len(t) + 1):
            reads.append(reader.take(k))
            if len(reads[-1][0]) < k:
                break
    expected, error = reference_parse(text, width)
    assert (str(reader.error) if reader.error else None) == error
    block = np.column_stack([np.concatenate(a) for a in zip(*reads)])
    assert block.tolist() == np.reshape(expected, (-1, width)).tolist()


@pytest.mark.parametrize("k", [1, 5])
def test_quoted_cell_across_lines_keeps_the_line_numbers(tmp_path, k):
    """A quoted cell that spans two lines is one row, read on past the end
    of its chunk when it must be, and the next row's error names its own
    physical line."""
    path = tmp_path / "data.csv"
    path.write_text('t,x1,y1\n0.0,"1.0\n",2.0\n1.0,oops,2.0\n')
    reader = cli._CsvBlocks(cli._follow_lines(str(path), idle_timeout=0.0))
    reads = [reader.take(k), reader.take(k)]
    t, x, y = (np.concatenate(a) for a in zip(*reads))
    assert (t.tolist(), x.tolist(), y.tolist()) == ([0.0], [[1.0]], [[2.0]])
    assert str(reader.error) == "line 4: non-numeric cell in row '1.0,oops,2.0'"


@pytest.fixture(scope="module")
def ci_stream(tmp_path_factory):
    """The 3 s Lorenz stream of the CI: 301 data rows, lines 2 to 302."""
    sim = tmp_path_factory.mktemp("ci") / "sim"
    assert main(["--mode", "simulate", "--case", "lorenz", "--t-end", "3.0",
                 "--output", str(sim)]) == 0
    config = sim.parent / "stream.json"
    config.write_text(json.dumps({"idle_timeout": 0.1}))
    return sim / "data.csv", config


def edit_quoted(lines):
    cells = lines[151].rstrip("\n").split(",")
    cells[1] = f'"{cells[1]}"'
    lines[151] = ",".join(cells) + "\n"


def edit_torn(lines):
    lines[-1] = ",".join(lines[-1].split(",")[:2])  # no newline after it


def edit_bad(lines):
    lines[150] = "oops\n"


def edit_hash(lines):
    lines.insert(151, "# a comment\n")


# each edit of the CI stream: its exit code, stderr and record count, in
# fit and in stream alike
ODD_INPUTS = {
    "quoted": (edit_quoted, 0, "", 201),
    "torn": (edit_torn, 3, "input error: line 302: row has 2 fields, expected 7\n", 200),
    "bad": (edit_bad, 3, "input error: line 151: row has 1 fields, expected 7\n", 49),
    "hash": (edit_hash, 3, "input error: line 152: row has 1 fields, expected 7\n", 50),
}


@pytest.mark.parametrize("mode", ["fit", "stream"])
@pytest.mark.parametrize("kind", sorted(ODD_INPUTS))
def test_odd_lines_keep_their_exit_and_message(tmp_path, capsys, ci_stream, mode, kind):
    """On the CI stream: a quoted x1 cell reads as the number, so the run
    writes the records of the plain stream; a torn final line, a bad row in
    the middle of a read and a `#` line (not skipped as a comment) exit 3
    with one line naming the row's line, after the records before it."""
    data, config = ci_stream
    edit, code, err, n_records = ODD_INPUTS[kind]
    lines = data.read_text().splitlines(keepends=True)
    edit(lines)
    odd = tmp_path / "odd.csv"
    odd.write_text("".join(lines))
    outs = {}
    for name, path in (("plain", data), ("odd", odd)):
        outs[name] = tmp_path / name
        status = main(["--mode", mode, "--input", str(path), "--output", str(outs[name]),
                       "--window", "100", "--batch-in", "1", "--config", str(config)])
        assert (status, capsys.readouterr().err) == ((0, "") if name == "plain" else (code, err))
    steps = {name: (out / "steps.jsonl").read_bytes() for name, out in outs.items()}
    assert steps["odd"].count(b"\n") == n_records
    assert steps["plain"].startswith(steps["odd"])
    if kind == "quoted":
        assert steps["odd"] == steps["plain"]


@pytest.mark.parametrize("mode", ["fit", "stream", "monitor"])
def test_byte_that_is_not_utf8_is_a_bad_cell(tmp_path, capsys, ci_stream, mode):
    """On the CI stream, a byte that is not UTF-8 after the first comma of
    line 151 reads as a non-numeric cell: the run exits 3 with one line
    naming line 151, after the records of the rows before it."""
    data, config = ci_stream
    lines = data.read_bytes().splitlines(keepends=True)
    lines[150] = lines[150].replace(b",", b",\xff", 1)
    odd = tmp_path / "odd.csv"
    odd.write_bytes(b"".join(lines))
    records, output = {}, "monitor.jsonl" if mode == "monitor" else "steps.jsonl"
    for name, path in (("plain", data), ("odd", odd)):
        out = tmp_path / name
        status = main(["--mode", mode, "--input", str(path), "--output", str(out),
                       "--window", "100", "--batch-in", "1", "--config", str(config)])
        err = capsys.readouterr().err
        records[name] = (out / output).read_bytes()
    assert status == 3
    assert err.startswith("input error: line 151: non-numeric cell in row '1.49,\ufffd")
    assert err.count("\n") == 1
    assert records["odd"].count(b"\n") == 49
    assert records["plain"].startswith(records["odd"])


def test_fit_outside_a_utf8_locale_writes_the_utf8_bytes(tmp_path, ci_stream):
    """Under the C locale, with Python's UTF-8 mode off, a fit exits 0 and
    writes the bytes that a UTF-8-mode fit writes, equations.txt's `·`
    included."""
    data, _ = ci_stream
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONUTF8", "PYTHONIOENCODING")}
    env.update(LC_ALL="C", PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    for utf8 in (0, 1):
        done = subprocess.run(
            [sys.executable, "-X", f"utf8={utf8}", "-m", "sparsid.cli", "--mode", "fit",
             "--input", str(data), "--output", str(tmp_path / f"utf8-{utf8}"),
             "--window", "100", "--batch-in", "1"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert (done.returncode, done.stderr) == (0, "")
    names = ("steps.jsonl", "errors.csv", "equations.txt")
    outputs = [[(tmp_path / f"utf8-{u}" / n).read_bytes() for n in names] for u in (0, 1)]
    assert outputs[0] == outputs[1]
    assert "·".encode() in outputs[0][2]


def test_cell_past_the_field_size_limit_is_an_input_error(tmp_path, capsys):
    """A finite cell longer than csv's field size limit is the input error
    csv reports, not a number that the chunked parse reads past it; in the
    header too, where it is one line and not a traceback."""
    limit = csv.field_size_limit()
    tiny = "0." + "0" * limit + "1"
    for text, line in ((f"t,x1,y1\n0.0,1.0,2.0\n1.0,{tiny},2.0\n2.0,1.0,2.0\n", 3),
                       (f"t,x1,{'y' * (limit + 1)}\n0.0,1.0,2.0\n", 1)):
        path = tmp_path / "data.csv"
        path.write_text(text)
        assert main(["--mode", "fit", "--input", str(path), "--output", str(tmp_path / "o"),
                     "--window", "2", "--degree", "1"]) == 3
        assert capsys.readouterr().err == (
            f"input error: line {line}: field larger than field limit ({limit})\n"
        )


@pytest.mark.parametrize("mode", ["fit", "stream"])
def test_clean_chunks_read_by_loadtxt_give_the_csv_records(
    tmp_path, linear_csv, monkeypatch, mode
):
    """Every chunk of a clean input longer than one line is parsed by
    np.loadtxt alone, and the records are those of a run whose every chunk
    goes through csv.reader and float()."""
    path, _ = linear_csv
    config = write_fit_config(tmp_path, idle_timeout=0.1)
    args = fit_args(path, tmp_path / "loadtxt", ["--config", str(config)])
    args[1] = mode
    rescan = cli._CsvBlocks._rescan

    def one_line_only(self, lines):
        assert len(lines) == 1, "a clean chunk fell back to csv"
        return rescan(self, lines)

    monkeypatch.setattr(cli._CsvBlocks, "_rescan", one_line_only)
    assert main(args) == 0
    monkeypatch.setattr(cli._CsvBlocks, "_rescan", rescan)

    def refuse(self, lines):
        raise ValueError("read by csv")

    monkeypatch.setattr(cli._CsvBlocks, "_block", refuse)
    args[5] = str(tmp_path / "csv")
    assert main(args) == 0
    loadtxt = (tmp_path / "loadtxt" / "steps.jsonl").read_bytes()
    assert loadtxt.count(b"\n") == (160 - 60) // 5
    assert loadtxt == (tmp_path / "csv" / "steps.jsonl").read_bytes()


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


def test_stream_writes_each_record_before_the_next_step(
    tmp_path, linear_csv, monkeypatch
):
    """A stream run reads one batch at a time and flushes every record, so a
    reader of steps.jsonl sees step k - 1 before step k starts."""
    path, _ = linear_csv
    out = tmp_path / "stream"
    written = out / "steps.jsonl"
    started = []
    steps = cli._Fit.steps

    def steps_after_flush(self, t, x, y):
        if len(t):  # the read at the end of the input is empty
            started.append(len(written.read_text().splitlines()))
            assert started[-1] == len(started) - 1
        return steps(self, t, x, y)

    reads = []
    take = cli._CsvBlocks.take

    def recorded_take(self, k):
        reads.append(k)
        return take(self, k)

    monkeypatch.setattr(cli._Fit, "steps", steps_after_flush)
    monkeypatch.setattr(cli._CsvBlocks, "take", recorded_take)
    cfg = write_fit_config(tmp_path, idle_timeout=0.1)
    args = fit_args(path, out, ["--config", str(cfg)])
    args[1] = "stream"
    assert main(args) == 0
    assert len(started) == (160 - 60) // 5
    assert reads[0] == 60 and set(reads[1:]) == {5}  # the warmup, then one batch a read


@pytest.mark.parametrize("mode", ["fit", "stream", "monitor"])
def test_each_read_is_on_disk_before_the_next(tmp_path, linear_csv, monkeypatch, mode):
    """Every mode flushes its records after each read: when a read is
    taken, the records file holds exactly the records of the reads before
    it, here of two batches each (one in stream mode)."""
    monkeypatch.setattr(cli, "_BLOCK", 2)
    out = tmp_path / mode
    records = out / ("monitor.jsonl" if mode == "monitor" else "steps.jsonl")
    seen = []
    take = cli._CsvBlocks.take

    def take_after_reading_the_records(self, k):
        if records.exists():  # it is created after the warmup is taken
            seen.append(records.read_bytes())
        return take(self, k)

    monkeypatch.setattr(cli._CsvBlocks, "take", take_after_reading_the_records)
    path, _ = linear_csv
    args = fit_args(path, out, ["--config", str(write_fit_config(tmp_path, idle_timeout=0.1))])
    args[1] = mode
    assert main(args) == 0
    lines = records.read_bytes().splitlines(keepends=True)
    per_read = 1 if mode == "stream" else 2
    assert len(lines) == (160 - 60) // 5
    assert seen == [b"".join(lines[: per_read * i]) for i in range(len(seen))]
    assert len(seen) == len(lines) // per_read + 1  # and the read that finds the end


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


@pytest.mark.parametrize("mode", ["fit", "stream", "monitor"])
def test_runs_build_no_sample(tmp_path, linear_csv, monkeypatch, mode):
    """Every run works on the reader's arrays: with the Sample constructor
    raising, and rec.init and rec.step refusing anything but (t, x, y)
    arrays, it exits 0 with every record."""

    def no_sample(*args):
        raise AssertionError(f"a {mode} run built a Sample")

    def arrays_only(name, position):
        library = getattr(rec, name)

        def call(*args):
            assert isinstance(args[position], tuple), f"rec.{name} was passed Samples"
            return library(*args)

        return call

    monkeypatch.setattr(Sample, "__post_init__", no_sample)
    monkeypatch.setattr(rec, "init", arrays_only("init", 2))
    monkeypatch.setattr(rec, "step", arrays_only("step", 1))
    path, _ = linear_csv
    out = tmp_path / mode
    code = main(
        ["--mode", mode, "--input", str(path), "--output", str(out),
         "--window", "60", "--batch-in", "5", "--forget", "5", "--degree", "1",
         "--config", str(write_fit_config(tmp_path, idle_timeout=0.1))]
    )
    assert code == 0
    name = "monitor.jsonl" if mode == "monitor" else "steps.jsonl"
    assert len((out / name).read_text().splitlines()) == (160 - 60) // 5


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
        for forget in sorted({*range(min(batch_in, window) + 1), batch_in})
    ],
)
def test_monitor_slides_its_window_as_fit_does(
    tmp_path, stalling_stream, window, batch_in, forget
):
    """The monitor audits each slide as the fit does, and its PE check sees
    the last `window` samples read, when the window slides (forget =
    batch_in, batches longer than the window included) and when it grows
    (forget = 0). Any other forget exits 2 in both modes, before any
    output exists."""
    path, states = stalling_stream
    cfg = write_fit_config(tmp_path, theta_mode="fixed", include_bias=True)
    expected = 0 if forget in (0, batch_in) else 2
    outputs = {}
    for mode in ("fit", "monitor"):
        out = tmp_path / mode
        assert main(["--mode", mode, "--input", str(path), "--output", str(out),
                     "--window", str(window), "--batch-in", str(batch_in),
                     "--forget", str(forget), "--degree", "1", "--policy", "warn",
                     "--config", str(cfg)]) == expected
        if expected:
            assert not out.exists()
            continue
        name = "steps.jsonl" if mode == "fit" else "monitor.jsonl"
        outputs[mode] = [json.loads(l) for l in (out / name).read_text().splitlines()]
    if expected:
        return
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


def write_stalling_stream(path, n, zero_runs, seed):
    """CSV of a noisy two-input linear system whose states are zero over the
    given [start, stop) runs of rows."""
    rng = np.random.default_rng(seed)
    states = rng.normal(size=(n, 2))
    for start, stop in zero_runs:
        states[start:stop] = 0.0
    y = states @ [3.0, -2.0] + 0.05 * rng.normal(size=n)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "x1", "x2", "y1"])
        for i in range(n):
            cells = [float(i)] + [repr(float(v)) for v in states[i]] + [repr(float(y[i]))]
            writer.writerow(cells)


@settings(max_examples=20)
@example(window=5, batch_in=1, slide=True, extra=300, zero_runs=[(100, 140)], seed=0)
@example(window=4, batch_in=9, slide=False, extra=40, zero_runs=[(10, 30)], seed=1)
@example(window=4, batch_in=9, slide=True, extra=40, zero_runs=[(10, 30)], seed=1)
@given(
    window=st.integers(3, 12),
    batch_in=st.integers(1, 15),
    slide=st.booleans(),
    extra=st.integers(0, 90),
    zero_runs=st.lists(st.tuples(st.integers(0, 100), st.integers(1, 30)), max_size=3)
    .map(lambda runs: [(start, start + length) for start, length in runs]),
    seed=st.integers(0, 2**16),
)
def test_block_reads_change_no_output(window, batch_in, slide, extra, zero_runs, seed):
    """Reading a finished input a block of batches at a time gives the bytes
    that one batch a read gives: monitor.jsonl, and steps.jsonl under warn,
    reject and defer, for any window geometry (a sliding or a growing
    window, batches longer than the window), zero-state stretches, and
    streams of several blocks."""
    forget = batch_in if slide else 0
    runs = [("monitor", "warn"), ("fit", "warn"), ("fit", "reject"), ("fit", "defer")]
    saved = cli._BLOCK
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        data = tmp / "data.csv"
        write_stalling_stream(data, window + extra, zero_runs, seed)
        config = tmp / "run.json"
        config.write_text(json.dumps(
            {"include_bias": False, "noise_variances": 0.01, "theta_mode": "fixed"}
        ))
        outputs = {}
        try:
            for block in (1, 2, 3, saved):
                cli._BLOCK = block
                for mode, policy in runs:
                    out = tmp / f"{mode}-{policy}-{block}"
                    code = main([
                        "--mode", mode, "--input", str(data), "--output", str(out),
                        "--window", str(window), "--batch-in", str(batch_in),
                        "--forget", str(forget), "--degree", "1",
                        "--policy", policy, "--config", str(config),
                    ])
                    name = "steps.jsonl" if mode == "fit" else "monitor.jsonl"
                    written = (out / name).read_bytes() if (out / name).exists() else None
                    outputs[mode, policy, block] = (code, written)
        finally:
            cli._BLOCK = saved
    for mode, policy in runs:
        code, written = outputs[mode, policy, 1]
        # a degenerate warmup exits 4 under the strict policies
        assert code == 0 or (policy != "warn" and code == 4 and written is None)
        if code == 0:
            assert written.count(b"\n") == extra // batch_in
        for block in (2, 3, saved):
            assert outputs[mode, policy, block] == (code, written), (mode, policy, block)


@settings(max_examples=20)
# xi = 0.9 on a sliding window drains it: steps are rolled back inside reads
@example(window=6, batch_in=2, slide=True, xi=0.9, refresh_every=3, extra=150,
         zero_runs=[(40, 60)], seed=0)
# a refresh every 7 samples lands inside reads of 2, 3 and 128 batches
@example(window=5, batch_in=1, slide=False, xi=1.0, refresh_every=7, extra=200,
         zero_runs=[(100, 140)], seed=0)
@given(
    window=st.integers(3, 12),
    batch_in=st.integers(1, 6),
    slide=st.booleans(),
    xi=st.sampled_from([1.0, 0.9]),
    refresh_every=st.sampled_from([None, 2, 3, 5, 7]),
    extra=st.integers(0, 150),
    zero_runs=st.lists(st.tuples(st.integers(0, 100), st.integers(1, 30)), max_size=3)
    .map(lambda runs: [(start, start + length) for start, length in runs]),
    seed=st.integers(0, 2**16),
)
def test_block_reads_match_one_batch_reads_through_refreshes_and_rollbacks(
    window, batch_in, slide, xi, refresh_every, extra, zero_runs, seed
):
    """A fit that steps a block of batches a read writes the steps.jsonl and
    errors.csv bytes that one batch a read writes, under warn, reject and
    defer: with the adaptive prior refreshed every `refresh_every` samples
    (None keeps it fixed), which need not divide a read, so refreshes land
    inside reads, and with xi = 0.9, whose sliding window drains until steps
    are rolled back inside reads."""
    forget = batch_in if slide else 0
    saved = cli._BLOCK
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        data = tmp / "data.csv"
        write_stalling_stream(data, window + extra, zero_runs, seed)
        truth = {"segments": [{"start_t": 0.0, "coeffs": [3.0, -2.0]}]}
        (tmp / "truth.json").write_text(json.dumps(truth))
        config = tmp / "run.json"
        config.write_text(json.dumps({
            "include_bias": False, "noise_variances": 0.01, "refresh_every": refresh_every,
            "theta_mode": "fixed" if refresh_every is None else "adaptive",
        }))
        outputs = {}
        try:
            for block in (1, 2, 3, saved):
                cli._BLOCK = block
                for policy in rec.POLICIES:
                    out = tmp / f"{policy}-{block}"
                    code = main([
                        "--mode", "fit", "--input", str(data), "--output", str(out),
                        "--window", str(window), "--batch-in", str(batch_in),
                        "--forget", str(forget), "--xi", str(xi), "--degree", "1",
                        "--policy", policy, "--config", str(config),
                    ])
                    written = [(out / name).read_bytes() if (out / name).exists() else None
                               for name in ("steps.jsonl", "errors.csv")]
                    outputs[policy, block] = (code, *written)
        finally:
            cli._BLOCK = saved
    for policy in rec.POLICIES:
        for block in (2, 3, saved):
            assert outputs[policy, block] == outputs[policy, 1], (policy, block)


@pytest.mark.parametrize(
    "flags,refreshed,refused,rolled_back",
    [([], 40, 0, 0), (["--forget", "1", "--xi", "0.9"], 3, 1, 178)],
    ids=["growing", "drain"],
)
def test_refreshed_runs_reach_the_end_of_the_ci_stream(
    tmp_path, ci_stream, flags, refreshed, refused, rolled_back
):
    """On the CI stream with the prior refreshed every 5 samples, fit and
    stream each exit 0 with all 201 records and the equations, and write
    the same steps.jsonl and errors.csv bytes: 40 refreshes of a growing
    window, and, with xi = 0.9 on a sliding window, which drains its Gram, a
    run that rolls steps back and refuses the refresh that would leave a
    posterior that is not positive definite."""
    data, _ = ci_stream
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"refresh_every": 5, "idle_timeout": 0.1}))
    written = {}
    for mode in ("fit", "stream"):
        out = tmp_path / mode
        assert main(["--mode", mode, "--input", str(data), "--output", str(out),
                     "--window", "100", "--batch-in", "1", *flags,
                     "--config", str(config)]) == 0
        assert (out / "equations.txt").stat().st_size > 0
        written[mode] = [(out / name).read_bytes() for name in ("steps.jsonl", "errors.csv")]
    assert written["stream"] == written["fit"]
    records = read_records(tmp_path / "fit")
    reasons = [r["reason"] or "" for r in records]
    assert len(records) == 201
    assert sum(r["theta_refreshed"] for r in records) == refreshed
    assert sum(reason.endswith("refused") for reason in reasons) == refused
    assert sum("rolled back" in reason for reason in reasons) == rolled_back


def test_fit_factors_a_read_at_once(tmp_path, monkeypatch):
    """A fit factors the posteriors of a read with one stacked Cholesky call
    (np.linalg.cholesky) per run. A prior refresh ends its run and builds
    the refreshed posterior alone, so it adds two. On the 3 s Lorenz stream
    (201 steps, a refresh every 20 samples, nothing rolled back) that is at
    most reads + 2 * refreshes + 1 calls after the warmup, where one call a
    step makes at least 201."""
    sim = simulate_lorenz_stream(tmp_path)
    calls, per_read = [], []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(1) or cholesky(a))
    step_read = rec.step_read

    def counted_read(*args):
        done = len(calls)
        try:
            return step_read(*args)
        finally:
            per_read.append(len(calls) - done)

    monkeypatch.setattr(rec, "step_read", counted_read)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"refresh_every": 20}))
    out = tmp_path / "fit"
    assert main(["--mode", "fit", "--input", str(sim / "data.csv"), "--output", str(out),
                 "--window", "100", "--batch-in", "1", "--config", str(config)]) == 0
    records = read_records(out)
    reasons = [r["reason"] or "" for r in records]
    refreshes = sum(r["theta_refreshed"] for r in records)
    refreshes += sum(reason.endswith("refused") for reason in reasons)
    rollbacks = sum("rolled back" in reason for reason in reasons)
    assert len(records) == 201 and refreshes == 10 and rollbacks == 0
    assert sum(per_read) <= len(per_read) + 2 * refreshes + 1, per_read


@pytest.mark.parametrize("policy", ["warn", "reject", "defer"])
@pytest.mark.parametrize("forget", [0, 4])
def test_fit_writes_the_library_loop_over_samples(tmp_path, policy, forget):
    """steps.jsonl holds, byte for byte, the sorted JSON of the step records
    of an init/step loop over Samples read from the same CSV: the CLI's
    arrays and a library caller's Samples reach one path, under every
    policy, with forget 0 and forget = batch_in."""
    window, batch_in = 20, 4
    data = tmp_path / "data.csv"
    write_stalling_stream(data, 200, [(60, 90), (130, 150)], seed=3)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"include_bias": False, "noise_variances": 0.01}))
    out = tmp_path / "fit"
    assert main(["--mode", "fit", "--input", str(data), "--output", str(out),
                 "--window", str(window), "--batch-in", str(batch_in),
                 "--forget", str(forget), "--degree", "1", "--policy", policy,
                 "--config", str(config)]) == 0

    with open(data, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    samples = [Sample(float(t), [float(x1), float(x2)], [float(y)]) for t, x1, x2, y in rows]
    spec = DictionarySpec(state_dim=2, poly_degree=1, include_bias=False)
    rconfig = RecursionConfig(window=window, batch_in=batch_in, forget=forget, policy=policy)
    state = rec.init(spec, rconfig, samples[:window], NoiseModel([0.01]),
                     initial_horseshoe(spec, 1))
    lines = []
    for k in range(window, len(samples) - batch_in + 1, batch_in):
        outcome = rec.step(state, samples[k : k + batch_in])
        lines.append(json.dumps(rec.step_record(state, outcome), sort_keys=True) + "\n")
    written = (out / "steps.jsonl").read_text()
    assert written == "".join(lines)
    assert len(lines) == (200 - window) // batch_in
    if policy != "warn":  # the zero-state stretches are refused
        assert '"accepted": false' in written


@pytest.mark.parametrize("mode", ["fit", "stream", "monitor"])
@pytest.mark.parametrize("value", ["1e200", "1e100", "1e77"])
def test_overflowing_state_is_an_input_error(tmp_path, capsys, mode, value):
    """A finite state whose dictionary row (1e200) or whose Gram (1e100;
    1e77, whose Gram entry of 1e308 overflows as the Gram is symmetrized)
    overflows exits 3 with one line on stderr and no warning, and keeps
    the records written before the read that holds it: fit and stream
    write each step's record as it goes, the monitor a read's at its end."""
    sim = simulate_lorenz_stream(tmp_path)
    lines = (sim / "data.csv").read_text().splitlines(keepends=True)
    cells = lines[150].split(",")
    cells[1] = value  # x1 of data row 150, the batch of step 50
    lines[150] = ",".join(cells)
    data = tmp_path / "big.csv"
    data.write_text("".join(lines))
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"idle_timeout": 0.1}))
    out = tmp_path / mode
    assert main(["--mode", mode, "--input", str(data), "--output", str(out),
                 "--window", "100", "--batch-in", "1", "--config", str(config)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1, err
    name = "monitor.jsonl" if mode == "monitor" else "steps.jsonl"
    assert len((out / name).read_text().splitlines()) == (0 if mode == "monitor" else 49)


def strict_json(line: str):
    """A line parsed as RFC 8259 JSON: NaN and Infinity are refused."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(line, parse_constant=refuse)


@pytest.mark.parametrize("mode", ["fit", "stream", "monitor"])
@pytest.mark.parametrize(
    "column,value,rows,expected",
    [
        # the fit's residual of y1 = 1e300 overflows: the record of step 50
        # would hold it; the monitor reads no y and runs through
        (4, "1e300", range(150, 151), {"fit": (3, 49), "monitor": (0, 201)}),
        # the monitor's window Gram sums the 40 rows of x1 = 5e76 and
        # overflows; the fit rolls most of them back, so its moments do not
        (1, "5e76", range(150, 190), {"fit": (0, 201), "monitor": (3, 0)}),
    ],
    ids=["y1-1e300", "x1-5e76"],
)
def test_no_non_finite_value_reaches_a_record(
    tmp_path, capsys, mode, column, value, rows, expected
):
    """A finite cell whose sums overflow either ends the run with exit 3,
    one `input error:` line naming where, and the records before the step
    (fit, stream) or the read (monitor) that holds it, or the run exits 0:
    every line written is JSON without NaN or Infinity either way."""
    sim = simulate_lorenz_stream(tmp_path)
    lines = (sim / "data.csv").read_text().splitlines(keepends=True)
    for row in rows:  # data row 150 is the batch of step 50
        cells = lines[row].split(",")
        cells[column] = value
        lines[row] = ",".join(cells)
    data = tmp_path / "big.csv"
    data.write_text("".join(lines))
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"idle_timeout": 0.1}))
    out = tmp_path / mode
    code = main(["--mode", mode, "--input", str(data), "--output", str(out),
                 "--window", "100", "--batch-in", "1", "--config", str(config)])
    err = capsys.readouterr().err
    name = "monitor.jsonl" if mode == "monitor" else "steps.jsonl"
    records = list(map(strict_json, (out / name).read_text().splitlines()))
    assert (code, len(records)) == expected["monitor" if mode == "monitor" else "fit"]
    if code:
        assert err.startswith("input error: ") and err.count("\n") == 1, err
        where = "step 50:" if column == 4 else "the window Gram overflows at t="
        assert where in err, err


@settings(max_examples=100, deadline=None)
@given(
    cells=st.lists(
        st.tuples(st.integers(0, 59), st.integers(1, 4), st.integers(-308, 308)),
        min_size=1, max_size=6,
    ),
    mode=st.sampled_from(["fit", "monitor"]),
    policy=st.sampled_from(rec.POLICIES),
    slide=st.booleans(),
    batch_in=st.sampled_from([1, 3]),
    variance=st.sampled_from([1.0, 0.01]),
    theta_mode=st.sampled_from(rec.THETA_MODES),
    seed=st.integers(0, 100),
)
def test_large_cells_exit_3_or_write_json(
    cells, mode, policy, slide, batch_in, variance, theta_mode, seed
):
    """Cells of +-10^k, k up to 308, in any x or y of a 60-row stream: the
    run exits 3 or 4 with one line on stderr and no warning, or 0, and
    every line it writes is JSON without NaN or Infinity."""
    rng = np.random.default_rng(seed)
    rows = [[repr(float(v)) for v in row]
            for row in np.column_stack([np.arange(60.0), rng.normal(size=(60, 4))])]
    for row, column, k in cells:
        rows[row][column] = f"{'-' if k < 0 else ''}1e{abs(k)}"
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        data = tmp / "data.csv"
        data.write_text("t,x1,x2,x3,y1\n" + "".join(",".join(r) + "\n" for r in rows))
        config = tmp / "run.json"
        config.write_text(json.dumps({"noise_variances": variance, "theta_mode": theta_mode}))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["--mode", mode, "--input", str(data), "--output", str(tmp / "out"),
                         "--window", "20", "--batch-in", str(batch_in),
                         "--forget", str(batch_in if slide else 0), "--policy", policy,
                         "--degree", "2", "--config", str(config)])
        assert code in (0, 3, 4) and err.getvalue().count("\n") == (code != 0), err.getvalue()
        name = "monitor.jsonl" if mode == "monitor" else "steps.jsonl"
        if (tmp / "out" / name).exists():
            for line in (tmp / "out" / name).read_text().splitlines():
                strict_json(line)


@pytest.mark.parametrize("mode", ["fit", "stream"])
@pytest.mark.parametrize("theta_mode", ["adaptive", "fixed"])
def test_warmup_posterior_that_is_not_pd_is_a_violation(tmp_path, capsys, mode, theta_mode):
    """A sensor stuck at 1e8 over the warmup leaves a rank-one Gram whose
    entries of 1e32 swamp the prior: its posterior is not positive definite
    in floating point. Every policy exits 4 with one line and writes
    nothing, warn included. Stuck at 1e5, the prior still tells, and warn
    runs."""
    rng = np.random.default_rng(0)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"idle_timeout": 0.1, "theta_mode": theta_mode}))
    for stuck in ("1e8", "1e5"):
        data = tmp_path / f"stuck-{stuck}.csv"
        with open(data, "w") as fh:
            fh.write("t,x1,y1\n")
            for i in range(40):
                x = stuck if i < 10 else repr(float(rng.normal()))
                fh.write(f"{float(i)},{x},{float(rng.normal())!r}\n")
        for policy in rec.POLICIES:
            out = tmp_path / f"{stuck}-{policy}"
            code = main(["--mode", mode, "--input", str(data), "--output", str(out),
                         "--window", "10", "--batch-in", "1", "--policy", policy,
                         "--config", str(config)])
            err = capsys.readouterr().err
            if stuck == "1e5" and policy == "warn":
                assert code == 0 and not err, err
                continue
            assert code == 4, (stuck, policy, err)
            assert err.startswith("well-posedness violation: ") and err.count("\n") == 1
            assert not out.exists()


@pytest.mark.parametrize("mode", ["fit", "stream", "monitor", "simulate"])
@pytest.mark.parametrize("theta_mode", ["adaptive", "fixed"])
@pytest.mark.parametrize(
    "prior",
    [{"initial_tau": 1e155}, {"initial_scale": 1e155}, {"initial_scale": 1e-155},
     {"initial_scale": 1e-200}, {"initial_scale": 1e100, "initial_tau": 1e100}],
    ids=["tau-1e155", "scale-1e155", "scale-1e-155", "scale-1e-200", "product-1e400"],
)
def test_prior_that_no_float_holds_is_a_configuration_error(
    tmp_path, capsys, mode, theta_mode, prior
):
    """Each setting is finite and positive, but lambda^2, tau^2 or the
    prior precision 1 / (lambda^2 tau^2) is not a finite positive float:
    every mode exits 2 with one line and no warning, before it opens the
    input, and writes nothing."""
    sim = tmp_path / "sim"
    assert main(["--mode", "simulate", "--case", "lorenz", "--t-end", "1.19",
                 "--seed", "1", "--output", str(sim)]) == 0
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"idle_timeout": 0.1, "theta_mode": theta_mode, **prior}))
    out = tmp_path / "out"
    assert main(["--mode", mode, "--case", "lorenz", "--input", str(sim / "data.csv"),
                 "--output", str(out), "--window", "100", "--batch-in", "1",
                 "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: initial_scale and initial_tau")
    assert err.count("\n") == 1
    assert not out.exists()


FIT_ONLY_MODULES = ("sparsid.analyze", "sparsid.simulate")


def loaded_after(cwd, *runs) -> list:
    """Run the CLI on each argument list in turn, in one fresh process in
    cwd in which scipy cannot be imported; returns, after each run, which of
    FIT_ONLY_MODULES are loaded."""
    script = textwrap.dedent(
        f"""
        import json, sys
        sys.modules["scipy"] = None  # any import of scipy raises ImportError
        from sparsid.cli import main
        for args in {list(runs)!r}:
            assert main(args) == 0
            print(json.dumps([m for m in {FIT_ONLY_MODULES!r} if m in sys.modules]))
        """
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return [json.loads(line) for line in done.stdout.splitlines()]


def test_runs_need_no_scipy(tmp_path):
    """The runtime needs numpy only: simulate, monitor, fit and stream each
    exit 0 where scipy cannot be imported. A monitor run never renders or
    scores a posterior, nor simulates, so it loads neither `analyze` nor
    `simulate`; a fit run in the same process loads both. A simulate run
    loads only `simulate` of them."""
    simulate = ["--mode", "simulate", "--case", "lorenz", "--t-end", "2.0", "--output", "sim"]
    assert loaded_after(tmp_path, simulate) == [["sparsid.simulate"]]
    (tmp_path / "run.json").write_text(
        json.dumps({"window": 50, "batch_in": 1, "forget": 1, "idle_timeout": 0.1})
    )
    run = ["--config", "run.json", "--input", "sim/data.csv"]
    monitor = ["--mode", "monitor", "--output", "mon", *run]
    fit = ["--mode", "fit", "--output", "fit", *run]
    stream = ["--mode", "stream", "--output", "stream", *run]
    everything = list(FIT_ONLY_MODULES)
    assert loaded_after(tmp_path, monitor, fit, stream) == [[], everything, everything]
    assert (tmp_path / "mon" / "monitor.jsonl").stat().st_size > 0
    for name in ("steps.jsonl", "equations.txt"):
        assert (tmp_path / "fit" / name).stat().st_size > 0
        assert (tmp_path / "stream" / name).read_bytes() == (tmp_path / "fit" / name).read_bytes()


def test_package_names_resolve_on_first_access():
    """`import sparsid` loads no submodule; every name of `__all__`, and
    every submodule, resolves on first access, `from sparsid import *`
    included, and an unknown name raises AttributeError."""
    script = textwrap.dedent(
        """
        import json, sys
        import sparsid
        loaded = sorted(m for m in sys.modules if m.startswith("sparsid."))
        names = {}
        exec("from sparsid import *", names)
        missing = [n for n in sparsid.__all__ if n not in names]
        mismatched = [n for n in sparsid.__all__ if getattr(sparsid, n) is not names.get(n)]
        sparsid.posterior  # a submodule not imported yet
        try:
            sparsid.no_such_name
            raised = False
        except AttributeError:
            raised = True
        print(json.dumps([loaded, missing, mismatched, raised, len(sparsid.__all__)]))
        """
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[], [], [], True, 38]


def test_importing_cli_skips_numpy_random():
    """No run mode but simulate draws random numbers, so the CLI's import
    leaves numpy.random unloaded."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, sparsid.cli; print('numpy.random' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


def test_run_fit_rejects_missing_arguments():
    with pytest.raises(ConfigError):
        run_fit(RunConfig(mode="fit"))
