"""Command-line front end.

Four modes: `simulate` writes a benchmark stream as CSV plus a ground-truth
sidecar; `fit` runs the online estimator over a CSV and emits one JSONL
record per step plus rendered equations and, when a truth is found, scores
the accepted steps of each read against it in one call and appends their
rows to errors.csv before the read's records; `stream` is fit for a file
that is still being appended to (stops after an idle timeout); `monitor`
runs the well-posedness and excitation diagnostics only.

Configuration comes from defaults, then an optional JSON config file, then
command-line flags (flags win). It is checked before any input is opened,
the estimator's window geometry and the dictionary's degree included. What
needs the input's header (the geometry against the dictionary's columns,
the count of noise variances against the outputs) is checked once the
header is read, before any output exists. Exit codes: 0 success, 2
configuration error, 3 input/output error (moments that overflow and a
record that JSON cannot hold included), 4 well-posedness violation at
initialization: a warmup that fails its audit under a strict policy, or
whose posterior is not positive definite under any.

Fit, stream and monitor share one single-threaded loop: read the header,
take `window` warmup samples, then pass the full batches of `batch_in`
samples of each read to the mode's steps and write each record they return
as one JSON line. Fit hands a read to recursion.step_read in one call: one
audit, one accumulation of the moments and one stacked Cholesky per run of
the read, with the bytes of one recursion.step per batch. Stream reads one
batch at a time, so it is the one-batch path, and writes what fit writes.

A read's lines are parsed with one np.loadtxt call; csv.reader reads the
header, one-line reads and any read that loadtxt refuses or whose rows fail
a check, and builds every input error message.
"""

import argparse
import csv
import json
import math
import sys
import time
import typing
from dataclasses import dataclass, fields
from itertools import chain, filterfalse, islice
from pathlib import Path

import numpy as np

# analyze and simulate are imported inside the fit and simulate paths only,
# so a monitor process never loads them
from . import recursion as rec
from .dictionary import DictionarySpec, build_matrix, column_count
from .errors import ConditionViolated, DimensionMismatch, NonFiniteInput, NonFiniteState
from .errors import TimestampMismatch
from .monitor import accumulate, gram, pe_from_gram
from .posterior import HorseshoeState, NoiseModel, initial_horseshoe

__all__ = ["RunConfig", "run_simulate", "run_fit", "run_monitor", "main"]


class ConfigError(Exception):
    """Invalid configuration; maps to exit code 2."""


class InputError(Exception):
    """Missing or malformed input data; maps to exit code 3."""


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs, each setting declared and checked here. The
    keys named in _FLAGS also have a flag, of the key's type; the remaining
    keys are config-file only."""

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
        for f in fields(self):  # an int key must fit a C index (islice, numpy shapes)
            value = getattr(self, f.name)
            if type(value) is int and abs(value) > sys.maxsize:
                raise ConfigError(f"config key {f.name!r} must be at most {sys.maxsize} in size")
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
        if self.degree < 0:
            raise ConfigError("degree must be nonnegative")
        if self.degree == 0 and not self.include_bias:
            raise ConfigError("degree 0 without include_bias leaves no dictionary columns")
        try:  # the estimator's window geometry and update rules, in every mode
            recursion = rec.RecursionConfig(
                window=self.window,
                batch_in=self.batch_in,
                forget=self.forget,
                forgetting_factor=self.xi,
                policy=self.policy,
                theta_mode=self.theta_mode,
                refresh_every=self.refresh_every,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        object.__setattr__(self, "recursion", recursion)  # not a config key
        try:  # the initial prior, in every mode
            HorseshoeState(np.full((1, 1), self.initial_scale), self.initial_tau)
        except ValueError as exc:
            raise ConfigError(f"initial_scale and initial_tau: {exc}") from exc
        try:  # the noise variances, in every mode
            NoiseModel(self.noise_variances)
        except (ValueError, DimensionMismatch) as exc:
            raise ConfigError(f"noise_variances: {exc}") from exc


# the keys that also have a flag: batch_in is --batch-in
_FLAGS = (
    "mode", "case", "input", "output", "window", "batch_in", "forget", "xi",
    "degree", "policy", "seed", "theta_mode", "threshold", "dt", "t_end", "m", "n",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsid",
        description="Online sparse Bayesian identification of governing equations.",
    )
    parser.add_argument("--config", help="JSON config file")
    declared = {f.name: f.type for f in fields(RunConfig)}
    for name in _FLAGS:
        # an optional key's flag takes the non-None member of its union
        kinds = typing.get_args(declared[name]) or (declared[name],)
        (kind,) = set(kinds) - {type(None)}
        parser.add_argument("--" + name.replace("_", "-"), dest=name, type=kind)
    return parser


def _is_float(value) -> bool:
    """Whether a JSON number is a float or an int that a float holds."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        float(value)
    except OverflowError:  # an int too large for a float
        return False
    return True


def _has_type(value, declared) -> bool:
    """Whether a config-file value fits a RunConfig field type: a bool is
    not a number, an int may stand for a float when a float holds it, None
    only fits an optional field, and a list must hold such numbers."""
    kinds = typing.get_args(declared) or (declared,)
    if value is None or isinstance(value, bool):
        return type(value) in kinds
    if isinstance(value, list):
        return list in kinds and all(map(_is_float, value))
    if isinstance(value, int) and float in kinds:
        return _is_float(value)
    return type(value) in kinds


def resolve_config(namespace: argparse.Namespace) -> RunConfig:
    """defaults < config file < flags."""
    known = {f.name for f in fields(RunConfig)}
    merged = {}
    if namespace.config is not None:
        try:
            with open(namespace.config, encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
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
    for name in _FLAGS:
        value = getattr(namespace, name)
        if value is not None:
            merged[name] = value
    try:
        return RunConfig(**merged)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------- simulate


def run_simulate(cfg: RunConfig) -> None:
    from .simulate import (
        LorenzConfig,
        SparseRegressionConfig,
        case1_truth_payload,
        gen_sparse_regression,
        lorenz_truth_payload,
        simulate_lorenz,
        write_csv,
        write_truth_json,
    )

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
        rows = np.arange(len(x), dtype=float), x, y
        truth = case1_truth_payload(scenario, beta_true)
    else:
        try:
            scenario = LorenzConfig(
                dt=cfg.dt,
                t_end=cfg.t_end,
                noise_std=cfg.lorenz_noise_std,
                seed=cfg.seed,
            )
            rows = simulate_lorenz(scenario)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        except NonFiniteState as exc:  # the step is too long for the dynamics
            raise ConfigError(f"{exc} with dt={cfg.dt}; use a smaller dt") from exc
        truth = lorenz_truth_payload(scenario)
    out = Path(cfg.output)
    try:
        out.mkdir(parents=True, exist_ok=True)
        write_csv(out / "data.csv", *rows)
        write_truth_json(out / "truth.json", truth)
    except OSError as exc:
        raise InputError(str(exc)) from exc


# ----------------------------------------------------------------- parsing


def _parse_header(cols: list) -> tuple:
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
        raise InputError(f"malformed CSV header: {','.join(cols)!r}")
    return n_x, n_y


def _follow_lines(path: str, idle_timeout: float, poll: float = 0.05):
    """Lines of a file, tailed until idle_timeout s pass with no new data
    (idle_timeout 0: read to the end once). Only whole lines are yielded,
    and then a torn last line, if any."""
    try:
        fh = open(path, encoding="utf-8", errors="replace")  # a bad byte: a bad cell
    except OSError as exc:
        raise InputError(str(exc)) from exc
    with fh:
        buf = ""
        last_data = time.monotonic()
        while True:
            lines = fh.readlines(1 << 16)  # the lines there are, up to 64 kB
            if lines:
                last_data = time.monotonic()
                lines[0] = buf + lines[0]
                buf = "" if lines[-1].endswith("\n") else lines.pop()
                yield from lines
                continue
            if time.monotonic() - last_data >= idle_timeout:
                if buf:
                    yield buf
                return
            time.sleep(poll)


def _is_blank(row: list) -> bool:
    return not row or (len(row) == 1 and not row[0].strip())


class _CsvBlocks:
    """The rows of a CSV line stream, parsed and checked one chunk of lines
    at a time.

    take(k) parses the next lines with one np.loadtxt call and checks the
    array: one row of the header's width per line, finite cells, and
    timestamps strictly increasing after the previous chunk's. The header,
    a one-line chunk (which csv reads quicker) and a chunk that fails are
    read by csv.reader and float() row by row (_rescan), so quoted cells,
    `1_0` and non-ASCII digits are accepted, blank lines are skipped, and a
    `#` line is a bad row. A bad row stops the read: its InputError, naming
    its line, is kept in `error`, and only the rows before it are returned.
    """

    def __init__(self, lines):
        self._lines = iter(lines)
        reader = csv.reader(self._lines)
        try:
            header = next(filterfalse(_is_blank, reader), None)
        except csv.Error as exc:
            raise InputError(f"line {reader.line_num}: {exc}") from exc
        if header is None:
            raise InputError("input has no header row")
        self.n_x, self.n_y = _parse_header(header)
        self.width = 1 + self.n_x + self.n_y
        self._line_num = reader.line_num  # the lines read so far
        self._last_t = -math.inf
        self.error = None

    def take(self, k: int) -> tuple:
        """The timestamps (n,), states (n, n_x) and observations (n, n_y)
        of the next n = k rows; fewer only where the input ends or a bad
        row stops the read (see `error`)."""
        blocks = [np.empty((0, self.width))]
        while (n := sum(map(len, blocks))) < k and self.error is None:
            lines = list(islice(self._lines, k - n))
            if not lines:
                break
            try:
                blocks.append(self._block(lines))
                self._line_num += len(lines)
            except ValueError:
                blocks.append(self._rescan(lines))
        block, n_x = np.concatenate(blocks), self.n_x
        return block[:, 0], block[:, 1 : 1 + n_x], block[:, 1 + n_x :]

    def _block(self, lines: list) -> np.ndarray:
        """The chunk's lines as one array, or ValueError if any line is not
        one good row (or loadtxt and csv might read it apart)."""
        # one line reads quicker through csv; loadtxt warns on a blank first
        # line and reads a cell past csv's field size limit, which csv refuses
        limit = csv.field_size_limit()
        if len(lines) == 1 or not lines[0].strip() or max(map(len, lines)) > limit:
            raise ValueError("one line, a blank first line, or a cell csv refuses")
        block = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, dtype=float)
        if block.shape != (len(lines), self.width):  # blank lines are skipped
            raise ValueError("rows of the wrong field count, or blank lines")
        t = block[:, 0]
        if not (t[0] > self._last_t and (t[1:] > t[:-1]).all()):
            raise ValueError("timestamps not strictly increasing")
        if not np.isfinite(block).all():
            raise ValueError("non-finite cells")
        self._last_t = float(t[-1])
        return block

    def _rescan(self, lines: list) -> np.ndarray:
        """The error path of take: read a chunk through csv.reader and
        float() and check it row by row. Returns the rows before the first
        bad one, blank lines left out, and keeps the InputError naming that
        row's line in `error`. A quoted cell that spans lines reads on past
        the chunk."""
        reader = csv.reader(chain(lines, self._lines))
        line = self._line_num + 1  # the first line of the next row
        kept, last_t = [], self._last_t
        try:
            for row in reader:
                if not _is_blank(row):
                    kept.append(self._values(row, line, last_t))
                    last_t = kept[-1][0]
                line = self._line_num + reader.line_num + 1
                if reader.line_num >= len(lines):
                    break
        except csv.Error as exc:
            self.error = InputError(f"line {self._line_num + reader.line_num}: {exc}")
        except InputError as exc:
            self.error = exc
        self._line_num += reader.line_num
        self._last_t = last_t
        return np.array(kept, dtype=float).reshape(len(kept), self.width)

    def _values(self, row: list, line: int, last_t: float) -> list:
        """The floats of a row that follows t = last_t, or the InputError
        naming its line."""
        where = f"line {line}"
        if len(row) != self.width:
            raise InputError(f"{where}: row has {len(row)} fields, expected {self.width}")
        try:
            values = [float(cell) for cell in row]
        except ValueError:
            raise InputError(f"{where}: non-numeric cell in row {','.join(row)!r}") from None
        if not all(map(math.isfinite, values)):
            raise InputError(f"{where}: non-finite value in row {','.join(row)!r}")
        if values[0] <= last_t:
            raise InputError(
                f"{where}: timestamps must be strictly increasing, "
                f"got t={values[0]} after t={last_t}"
            )
        return values


# ----------------------------------------------------------------- run loop


# Batches per read of a finished input. Monitor mode stacks the kappas and
# the PE eigenvalues of a read: 128 matrices of 10 x 10 (Lorenz at degree 2)
# take 100 kB. A read also parses at most _BLOCK_CELLS CSV cells (one batch
# at least), so the parse of a wide or long-batch stream adds no more to the
# peak memory than a few hundred kB.
_BLOCK = 128
_BLOCK_CELLS = 4096


def _drive(cfg: RunConfig, mode_cls):
    """The one loop of fit, stream and monitor runs.

    Reads the header, checks the window geometry against the dictionary's
    column count (counted, not enumerated), builds the dictionary, hands
    the (t, x, y) arrays of `window` warmup rows to the mode's start, then
    passes the full batches of `batch_in` rows of each read to its steps as
    k x batch_in stacks of t, x and y (k >= 1), and writes
    the JSON lines of the records they return to the mode's output file. A
    finished input (fit, monitor) is read up to `_BLOCK` batches at a time;
    stream reads one batch at a time and flushes every record, so a reader
    of the file sees step k before batch k + 1 arrives. A mode that writes
    more than its records (fit's errors.csv) writes it before each read's
    records; those files (`derived_names`) are removed when the
    records file is truncated, so none of an earlier run's is left beside
    it. A trailing partial batch is dropped. A bad row exits after the
    batches before it were stepped and written. Returns the mode object, so
    the caller can write the final state.
    """
    if cfg.input is None or cfg.output is None:
        raise ConfigError(f"{cfg.mode} requires --input and --output")
    stream = cfg.mode == "stream"
    idle_timeout = cfg.idle_timeout if stream else 0.0
    rows = _CsvBlocks(_follow_lines(cfg.input, idle_timeout))
    try:  # counted before the dictionary enumerates its monomials
        cfg.recursion.check_columns(column_count(rows.n_x, cfg.degree, cfg.include_bias))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    spec = DictionarySpec(
        state_dim=rows.n_x, poly_degree=cfg.degree, include_bias=cfg.include_bias
    )
    mode = mode_cls(cfg, spec, rows.n_y)
    warmup = rows.take(cfg.window)
    if rows.error is not None:
        raise rows.error
    if len(warmup[0]) < cfg.window:
        raise InputError(
            f"input ended during warmup ({len(warmup[0])} of {cfg.window} samples)"
        )
    mode.start(*warmup)

    b = cfg.batch_in
    per_read = b
    if not stream:
        per_read *= max(1, min(_BLOCK, _BLOCK_CELLS // (b * rows.width)))
    out = Path(cfg.output)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name in mode.derived_names:
            (out / name).unlink(missing_ok=True)
        with open(out / mode.output_name, "w", encoding="utf-8") as fh:
            while True:
                read = rows.take(per_read)
                k = len(read[0]) // b
                if not k:  # the input ended within a batch
                    break
                batches = [a[: k * b].reshape(k, b, *a.shape[1:]) for a in read]
                for line in mode.steps(*batches):
                    fh.write(line)
                    if stream:
                        fh.flush()
                if len(read[0]) < per_read:
                    break
    except OSError as exc:
        raise InputError(str(exc)) from exc
    if rows.error is not None:
        raise rows.error
    return mode


def _json_line(record: dict) -> str:
    """The record as one line of JSON. A NaN or an infinity, which JSON
    cannot hold, is an input error that names the step."""
    try:
        return json.dumps(record, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise InputError(f"step {record['step']}: a non-finite value in its record") from exc


# --------------------------------------------------------------- fit modes


class _Fit:
    """Fit and stream: the estimator, stepped a read at a time
    (recursion.step_read). With a truth, the accepted steps of a read are
    scored in one call, which appends their errors.csv rows, before its
    records are written; the first read creates errors.csv even when it
    accepts no step (run_fit does when no read held a full batch). A record
    that JSON cannot hold, or a step the truth does not cover, ends the run
    after the steps before it are scored and written; an errors.csv that
    cannot be written ends it before the read's records are."""

    output_name = "steps.jsonl"
    derived_names = ("errors.csv", "equations.txt")

    def __init__(self, cfg: RunConfig, spec: DictionarySpec, n_y: int):
        from .analyze import ErrorWriter

        self.spec = spec
        self.rconfig = cfg.recursion
        self.noise = NoiseModel(_broadcast_variances(cfg.noise_variances, n_y))
        self.horseshoe = initial_horseshoe(
            spec, n_y, scale=cfg.initial_scale, tau=cfg.initial_tau
        )
        truth = _load_truth(cfg, spec, n_y)
        self.errors = None
        if truth is not None:
            self.errors = ErrorWriter(Path(cfg.output) / "errors.csv", truth)
        self.state = None

    def start(self, t, x, y) -> None:
        self.state = rec.init(self.spec, self.rconfig, (t, x, y), self.noise, self.horseshoe)

    def steps(self, t, x, y):
        outcomes, error = rec.step_read(self.state, t, x, y)
        lines = []
        try:
            for outcome in outcomes:
                lines.append(_json_line(rec.step_record(self.state, outcome)))
        except InputError as exc:  # the lines before it are written
            error = exc
        if self.errors is not None:  # every read, so the first creates errors.csv
            accepted = [o for o in outcomes[: len(lines)] if o.accepted]
            scored = self.errors.scored
            try:
                self.errors.add([o.timestamp for o in accepted], [o.coef_mean for o in accepted])
            except TimestampMismatch as exc:  # nor is the line of the step it names
                missing = accepted[self.errors.scored - scored]
                del lines[missing.step_index - outcomes[0].step_index :]
                error = InputError(f"truth file: {exc}")
        yield from lines
        if error is not None:
            raise error


def _broadcast_variances(value, n_y: int) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr.size == 1:
        return np.full(n_y, float(arr[0]))
    if arr.size != n_y:
        raise ConfigError(
            f"noise_variances has {arr.size} entries but the stream has {n_y} outputs"
        )
    return arr


def _load_truth(cfg: RunConfig, spec: DictionarySpec, n_y: int):
    """The coefficient truth of the `truth` file, else of a truth.json beside
    the input, if there is one; read_truth checks it against the fit."""
    from .analyze import read_truth

    path = Path(cfg.input).parent / "truth.json" if cfg.truth is None else cfg.truth
    if cfg.truth is None and not path.exists():
        return None
    try:
        with open(path, encoding="utf-8") as fh:
            return read_truth(json.load(fh), spec, n_y)
    except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise InputError(f"truth file {path}: {exc}") from exc


def run_fit(cfg: RunConfig) -> None:
    from .analyze import render_equations

    fit = _drive(cfg, _Fit)
    lines = render_equations(rec.snapshot(fit.state), cfg.threshold)
    try:
        if fit.errors is not None:  # the header, if no read held a full batch
            fit.errors.add([], [])
        with open(Path(cfg.output) / "equations.txt", "w", encoding="utf-8") as fh:
            fh.writelines(f"{line}\n" for line in lines)
    except OSError as exc:
        raise InputError(str(exc)) from exc


# ----------------------------------------------------------------- monitor


class _Monitor:
    """Diagnostics only: the estimator's audit of each batch, and the
    excitation of the window after the slide from a running window Gram.
    Every slide is applied: the full window is audited once per read
    (recursion.audit_run), its Grams are the fit's running sum at xi = 1
    (monitor.accumulate), and it takes the read's entering stacks in one
    extend; the kappas and PE eigenvalues of a read come from one stacked
    eigvalsh each. It works on the read's arrays."""

    output_name = "monitor.jsonl"
    derived_names = ()

    def __init__(self, cfg: RunConfig, spec: DictionarySpec, n_y: int):
        self.cfg = cfg
        self.spec = spec
        self.window = rec.WindowBuffer(cfg.window)
        self.gram = None
        self.step_index = 0

    def start(self, t, x, y) -> None:
        rows = build_matrix(self.spec, x)
        self.window.extend(t, x, y, rows)
        self.gram = gram(rows)

    def steps(self, t, x, y) -> list:
        (t, x, y), psi_new, _, _, pushed, differentials, reports = rec.audit_run(
            self.spec, self.window, t, x, y, self.cfg.forget
        )
        # pushed may be a view of the window's rows, so it is read before the extend
        grams = accumulate(self.gram, differentials - gram(pushed))
        finite = np.isfinite(grams).all(axis=(1, 2))
        if not finite.all():
            raise NonFiniteInput(f"the window Gram overflows at t={t[finite.argmin(), -1]}")
        self.gram = grams[-1]
        self.window.extend(t, x, y, psi_new)
        pes = pe_from_gram(grams, len(self.window), self.cfg.alpha1)
        lines = []
        for last_t, report, pe in zip(t[:, -1].tolist(), reports, pes):
            self.step_index += 1
            lines.append(_json_line({
                "step": self.step_index,
                "t": last_t,
                "classification": report.classification,
                "kappa_min": float(report.kappas[0]),
                "kappa_max": float(report.kappas[-1]),
                "pe_min_avg_eig": pe.min_avg_eig,
                "pe_max_avg_eig": pe.max_avg_eig,
                "pe_satisfied": pe.satisfied,
            }))
        return lines


def run_monitor(cfg: RunConfig) -> None:
    _drive(cfg, _Monitor)


# -------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = build_parser()
    namespace = parser.parse_args(argv)
    try:
        cfg = resolve_config(namespace)
        # an input large enough to overflow ends in one NonFiniteInput line,
        # with no numpy warning before it
        with np.errstate(over="ignore"):
            if cfg.mode == "simulate":
                run_simulate(cfg)
            elif cfg.mode in ("fit", "stream"):
                run_fit(cfg)
            else:
                run_monitor(cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (InputError, NonFiniteInput) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    except ConditionViolated as exc:
        print(f"well-posedness violation: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
