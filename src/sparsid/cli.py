"""Command-line front end.

Four modes: `simulate` writes a benchmark stream as CSV plus a ground-truth
sidecar; `fit` runs the online estimator over a CSV and emits one JSONL
record per step plus rendered equations; `stream` is fit for a file that is
still being appended to (stops after an idle timeout); `monitor` runs the
well-posedness and excitation diagnostics only.

Configuration comes from defaults, then an optional JSON config file, then
command-line flags (flags win). Exit codes: 0 success, 2 configuration
error, 3 input/output error, 4 well-posedness violation at initialization
under a strict policy.

Fit, stream and monitor share one single-threaded loop: read the header,
take `window` warmup samples, then for every full batch of `batch_in`
samples call the mode's step and write its record as one JSON line.
"""

import argparse
import csv
import io
import json
import math
import sys
import time
import typing
from dataclasses import dataclass, fields
from itertools import islice
from pathlib import Path

import numpy as np

from . import recursion as rec
from .analyze import TruthTrajectory, render_equations, score_errors, write_error_csv
from .dictionary import DictionarySpec, Sample, build_matrix
from .errors import ConditionViolated, SparsidError
from .monitor import gram, pe_from_gram
from .posterior import NoiseModel, initial_horseshoe
from .simulate import (
    LorenzConfig,
    SparseRegressionConfig,
    case1_truth_payload,
    gen_sparse_regression,
    lorenz_truth_payload,
    samples_from_arrays,
    simulate_lorenz,
    write_csv,
    write_truth_json,
)

__all__ = ["RunConfig", "run_simulate", "run_fit", "run_monitor", "main"]


class ConfigError(Exception):
    """Invalid configuration; maps to exit code 2."""


class InputError(Exception):
    """Missing or malformed input data; maps to exit code 3."""


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs. Every CLI flag mirrors one key here; the
    remaining keys are config-file only."""

    mode: str = "fit"
    case: str = "case1"
    input: str | None = None
    output: str | None = None
    window: int = 200
    batch_in: int = 1
    forget: int = 0
    xi: float = 1.0
    degree: int = 2
    policy: str = "warn"
    seed: int = 0
    theta_mode: str = "adaptive"
    threshold: float = 0.1
    # simulate extras (flags exist for dt/t_end/m/n)
    dt: float = 0.01
    t_end: float = 100.0
    m: int = 50
    n: int = 600
    nonzero_fraction: float = 0.3
    noise_variance: float = 0.1
    switch_at: int | None = None
    lorenz_noise_std: float = 1.0
    observation_mode: str = "derivative"
    # fit/monitor extras (config-file only)
    include_bias: bool = True
    noise_variances: float | list = 1.0  # one per output, or one for all
    initial_scale: float = 1.0
    initial_tau: float = 1.0
    refresh_every: int | None = None
    truth: str | None = None
    alpha1: float = 1e-6
    idle_timeout: float = 5.0

    def __post_init__(self):
        if self.mode not in ("simulate", "fit", "stream", "monitor"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.case not in ("case1", "lorenz"):
            raise ConfigError(f"unknown case {self.case!r}")
        if not (math.isfinite(self.idle_timeout) and self.idle_timeout > 0.0):
            raise ConfigError("idle_timeout must be finite and positive")
        if not (math.isfinite(self.threshold) and self.threshold >= 0.0):
            raise ConfigError("threshold must be finite and nonnegative")
        if not (math.isfinite(self.alpha1) and self.alpha1 > 0.0):
            raise ConfigError("alpha1 must be finite and positive")


_FLAGS = (
    ("--mode", "mode", str),
    ("--case", "case", str),
    ("--input", "input", str),
    ("--output", "output", str),
    ("--window", "window", int),
    ("--batch-in", "batch_in", int),
    ("--forget", "forget", int),
    ("--xi", "xi", float),
    ("--degree", "degree", int),
    ("--policy", "policy", str),
    ("--seed", "seed", int),
    ("--theta-mode", "theta_mode", str),
    ("--threshold", "threshold", float),
    ("--dt", "dt", float),
    ("--t-end", "t_end", float),
    ("--m", "m", int),
    ("--n", "n", int),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsid",
        description="Online sparse Bayesian identification of governing equations.",
    )
    parser.add_argument("--config", type=str, default=None, help="JSON config file")
    for flag, dest, typ in _FLAGS:
        parser.add_argument(flag, dest=dest, type=typ, default=None)
    return parser


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _has_type(value, declared) -> bool:
    """Whether a config-file value fits a RunConfig field type: a bool is
    not a number, an int may stand for a float, None only fits an optional
    field, and a list must hold numbers."""
    kinds = typing.get_args(declared) or (declared,)
    if value is None or isinstance(value, bool):
        return type(value) in kinds
    if isinstance(value, list):
        return list in kinds and all(_is_number(v) for v in value)
    if isinstance(value, int) and float in kinds:
        return True
    return type(value) in kinds


def resolve_config(namespace: argparse.Namespace) -> RunConfig:
    """defaults < config file < flags."""
    known = {f.name for f in fields(RunConfig)}
    merged = {}
    if namespace.config is not None:
        try:
            with open(namespace.config) as fh:
                file_cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(file_cfg) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for f in fields(RunConfig):
            if f.name in file_cfg and not _has_type(file_cfg[f.name], f.type):
                kind = getattr(f.type, "__name__", f.type)
                raise ConfigError(
                    f"config key {f.name!r} must be {kind}, got {file_cfg[f.name]!r}"
                )
        merged.update(file_cfg)
    for _, dest, _ in _FLAGS:
        value = getattr(namespace, dest)
        if value is not None:
            merged[dest] = value
    try:
        return RunConfig(**merged)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------- simulate


def run_simulate(cfg: RunConfig) -> None:
    if cfg.output is None:
        raise ConfigError("simulate requires --output")
    # validate the whole scenario before touching the filesystem
    if cfg.case == "case1":
        try:
            scenario = SparseRegressionConfig(
                m=cfg.m,
                n_samples=cfg.n,
                nonzero_fraction=cfg.nonzero_fraction,
                noise_variance=cfg.noise_variance,
                switch_at=cfg.switch_at,
                seed=cfg.seed,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        x, y, beta_true = gen_sparse_regression(scenario)
        samples = samples_from_arrays(np.arange(len(x), dtype=float), x, y)
        truth = case1_truth_payload(scenario, beta_true)
    else:
        try:
            scenario = LorenzConfig(
                dt=cfg.dt,
                t_end=cfg.t_end,
                noise_std=cfg.lorenz_noise_std,
                observation_mode=cfg.observation_mode,
                seed=cfg.seed,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        samples = simulate_lorenz(scenario)
        truth = lorenz_truth_payload(scenario)
    out = Path(cfg.output)
    try:
        out.mkdir(parents=True, exist_ok=True)
        write_csv(out / "data.csv", samples)
        write_truth_json(out / "truth.json", truth)
    except OSError as exc:
        raise InputError(str(exc)) from exc


# ----------------------------------------------------------------- parsing


def _parse_header(line: str) -> tuple:
    cols = next(csv.reader(io.StringIO(line)))
    if not cols or cols[0] != "t":
        raise InputError("first CSV column must be 't'")
    n_x = 0
    i = 1
    while i < len(cols) and cols[i] == f"x{n_x + 1}":
        n_x += 1
        i += 1
    n_y = 0
    while i < len(cols) and cols[i] == f"y{n_y + 1}":
        n_y += 1
        i += 1
    if i != len(cols) or n_x == 0 or n_y == 0:
        raise InputError(f"malformed CSV header: {line.strip()!r}")
    return n_x, n_y


def _parse_row(line: str, n_x: int, n_y: int, last_t: float | None) -> Sample:
    cells = next(csv.reader(io.StringIO(line)))
    if len(cells) != 1 + n_x + n_y:
        raise InputError(f"row has {len(cells)} fields, expected {1 + n_x + n_y}")
    try:
        values = [float(c) for c in cells]
    except ValueError as exc:
        raise InputError(f"non-numeric cell in row: {line.strip()!r}") from exc
    t = values[0]
    if last_t is not None and t <= last_t:
        raise InputError(f"timestamps must be strictly increasing at t={t}")
    try:
        return Sample(
            timestamp=t,
            state=np.array(values[1 : 1 + n_x]),
            observation=np.array(values[1 + n_x :]),
        )
    except SparsidError as exc:
        raise InputError(str(exc)) from exc


def _follow_lines(path: str, idle_timeout: float, poll: float = 0.05):
    """Non-blank lines of a file, tailed until idle_timeout s pass with no new data."""
    try:
        fh = open(path)
    except OSError as exc:
        raise InputError(str(exc)) from exc
    with fh:
        buf = ""
        last_data = time.monotonic()
        while True:
            chunk = fh.readline()
            if chunk:
                last_data = time.monotonic()
                buf += chunk
                if buf.endswith("\n"):
                    if buf.strip():
                        yield buf
                    buf = ""
                continue
            if time.monotonic() - last_data >= idle_timeout:
                if buf.strip():
                    yield buf
                return
            time.sleep(poll)


def _read_samples(lines) -> tuple:
    """(n_x, n_y, samples) of a CSV line iterator. The header is read now,
    the rows lazily as the sample iterator is consumed."""
    header = next(lines, None)
    if header is None:
        raise InputError("input has no header row")
    n_x, n_y = _parse_header(header)

    def rows():
        last_t = None
        for line in lines:
            sample = _parse_row(line, n_x, n_y, last_t)
            last_t = sample.timestamp
            yield sample

    return n_x, n_y, rows()


# ----------------------------------------------------------------- run loop


def _drive(cfg: RunConfig, mode_cls):
    """The one loop of fit, stream and monitor runs.

    Reads the header, builds the dictionary, hands `window` warmup samples
    to the mode's start, then passes every full batch of `batch_in` samples
    to its step and writes the returned record as one JSON line to the
    mode's output file. A trailing partial batch is dropped. Returns the
    mode object, so the caller can write what it keeps after the loop.
    """
    if cfg.input is None or cfg.output is None:
        raise ConfigError(f"{cfg.mode} requires --input and --output")
    if cfg.batch_in < 1:
        raise ConfigError(f"batch_in must be at least 1 for {cfg.mode} runs")
    idle_timeout = cfg.idle_timeout if cfg.mode == "stream" else 0.0
    n_x, n_y, samples = _read_samples(_follow_lines(cfg.input, idle_timeout))
    try:
        spec = DictionarySpec(
            state_dim=n_x, poly_degree=cfg.degree, include_bias=cfg.include_bias
        )
    except (ValueError, SparsidError) as exc:
        raise ConfigError(str(exc)) from exc
    mode = mode_cls(cfg, spec, n_y)
    warmup = list(islice(samples, cfg.window))
    if len(warmup) < cfg.window:
        raise InputError(
            f"input ended during warmup ({len(warmup)} of {cfg.window} samples)"
        )
    mode.start(warmup)

    out = Path(cfg.output)
    out.mkdir(parents=True, exist_ok=True)
    try:
        with open(out / mode.output_name, "w") as fh:
            while len(batch := list(islice(samples, cfg.batch_in))) == cfg.batch_in:
                fh.write(json.dumps(mode.step(batch), sort_keys=True))
                fh.write("\n")
    except OSError as exc:
        raise InputError(str(exc)) from exc
    return mode


# --------------------------------------------------------------- fit modes


class _Fit:
    """Fit and stream: the estimator, stepped once per batch."""

    output_name = "steps.jsonl"

    def __init__(self, cfg: RunConfig, spec: DictionarySpec, n_y: int):
        self.spec = spec
        try:
            self.rconfig = rec.RecursionConfig(
                window=cfg.window,
                batch_in=cfg.batch_in,
                forget=cfg.forget,
                forgetting_factor=cfg.xi,
                policy=cfg.policy,
                theta_mode=cfg.theta_mode,
                refresh_every=cfg.refresh_every,
            )
            self.noise = NoiseModel(_broadcast_variances(cfg.noise_variances, n_y))
            self.horseshoe = initial_horseshoe(
                spec, n_y, scale=cfg.initial_scale, tau=cfg.initial_tau
            )
        except (ValueError, SparsidError) as exc:
            raise ConfigError(str(exc)) from exc
        self.state = None
        self.estimates: list = []

    def start(self, warmup: list) -> None:
        try:
            self.state = rec.init(
                self.spec, self.rconfig, warmup, self.noise, self.horseshoe
            )
        except ValueError as exc:  # window geometry cannot identify the columns
            raise ConfigError(str(exc)) from exc

    def step(self, batch: list) -> dict:
        outcome = rec.step(self.state, batch)
        record = rec.step_record(self.state, outcome)
        if outcome.accepted:
            self.estimates.append((outcome.timestamp, np.ravel(record["coef_mean"])))
        return record


def _broadcast_variances(value, n_y: int) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr.size == 1:
        return np.full(n_y, float(arr[0]))
    if arr.size != n_y:
        raise ConfigError(
            f"noise_variances has {arr.size} entries but the stream has {n_y} outputs"
        )
    return arr


def _load_truth(cfg: RunConfig) -> TruthTrajectory | None:
    path = cfg.truth
    if path is None and cfg.input is not None:
        candidate = Path(cfg.input).parent / "truth.json"
        path = str(candidate) if candidate.exists() else None
    if path is None:
        return None
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read truth file: {exc}") from exc
    if "segments" not in payload:
        return None  # not a coefficient trajectory (e.g. drifting-parameter truth)
    return TruthTrajectory.from_dict(payload)


def run_fit(cfg: RunConfig) -> None:
    fit = _drive(cfg, _Fit)
    out = Path(cfg.output)
    final = rec.snapshot(fit.state)
    with open(out / "equations.txt", "w") as fh:
        for line in render_equations(final, cfg.threshold):
            fh.write(line)
            fh.write("\n")
    truth = _load_truth(cfg)
    if truth is not None and fit.estimates:
        write_error_csv(out / "errors.csv", score_errors(fit.estimates, truth))


# ----------------------------------------------------------------- monitor


class _Monitor:
    """Diagnostics only: the estimator's audit of each batch, and the
    excitation of the window after the slide from a running window Gram."""

    output_name = "monitor.jsonl"

    def __init__(self, cfg: RunConfig, spec: DictionarySpec, n_y: int):
        try:  # the estimator's window geometry rules
            rec.RecursionConfig(
                window=cfg.window, batch_in=cfg.batch_in, forget=cfg.forget
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        self.cfg = cfg
        self.spec = spec
        self.window = rec.WindowBuffer(cfg.window)
        self.gram = None
        self.step_index = 0

    def _gram(self, samples: list) -> np.ndarray:
        return gram(build_matrix(self.spec, [s.state for s in samples]))

    def start(self, warmup: list) -> None:
        self.window.extend(warmup)
        self.gram = self._gram(warmup)

    def step(self, batch: list) -> dict:
        batch, old, _, _, differential, report = rec.audit(
            self.spec, self.window, batch, self.cfg.forget
        )
        self.window.pop_oldest(len(old))
        pushed_out = self.window.extend(batch)  # only with forget == 0
        self.gram += differential - self._gram(pushed_out) if pushed_out else differential
        pe = pe_from_gram(self.gram, len(self.window), self.cfg.alpha1)
        self.step_index += 1
        return {
            "step": self.step_index,
            "t": float(batch[-1].timestamp),
            "classification": report.classification,
            "kappa_min": float(report.kappas[0]),
            "kappa_max": float(report.kappas[-1]),
            "pe_min_avg_eig": pe.min_avg_eig,
            "pe_max_avg_eig": pe.max_avg_eig,
            "pe_satisfied": pe.satisfied,
        }


def run_monitor(cfg: RunConfig) -> None:
    _drive(cfg, _Monitor)


# -------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = build_parser()
    namespace = parser.parse_args(argv)
    try:
        cfg = resolve_config(namespace)
        if cfg.mode == "simulate":
            run_simulate(cfg)
        elif cfg.mode in ("fit", "stream"):
            run_fit(cfg)
        else:
            run_monitor(cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    except ConditionViolated as exc:
        print(f"well-posedness violation: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
