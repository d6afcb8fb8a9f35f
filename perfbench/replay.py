"""Single-threaded in-process replay of the CLI loop, timed per step.

The replay reads the same CSV the CLI reads and runs the same library calls
per batch, so its per-step latency is the time from a complete batch to its
emitted line:

- fit: `rec.step` + `rec.step_record` + `json.dumps(..., sort_keys=True)`;
- monitor: `utility` + window slide + `check_pe` + record + `json.dumps`.

Only the package's public API is used.
"""

import csv
import json
import time

import numpy as np

import sparsid.recursion as rec
from sparsid import DictionarySpec, NoiseModel, Sample, batch_fit, initial_horseshoe
from sparsid.monitor import check_pe, utility

from checks import INVARIANT_RTOL, rel_diff

ALPHA1 = 1e-6  # the CLI's default excitation level


def read_stream(path) -> tuple:
    """(n_x, n_y, samples) of a stream CSV, parsed the way the CLI parses it."""
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows)
        n_x = sum(1 for c in header if c.startswith("x"))
        n_y = sum(1 for c in header if c.startswith("y"))
        samples = []
        for cells in rows:
            values = [float(c) for c in cells]
            samples.append(
                Sample(
                    timestamp=values[0],
                    state=np.array(values[1 : 1 + n_x]),
                    observation=np.array(values[1 + n_x :]),
                )
            )
    return n_x, n_y, samples


class Replay:
    """One workload's replay over one stream. `run` may be called repeatedly;
    every call starts from the warmup window."""

    def __init__(self, workload, path):
        self.w = workload
        n_x, n_y, self.samples = read_stream(path)
        self.spec = DictionarySpec(
            state_dim=n_x, poly_degree=workload.degree, include_bias=workload.include_bias
        )
        self.noise = NoiseModel(np.full(n_y, workload.noise_variance))
        self.steps = workload.steps(len(self.samples))
        self.final_record = None
        self.state = None

    def run(self, steps: int | None = None, between=None, every: int = 100) -> np.ndarray:
        """Replay `steps` batches (default: all); returns latencies in ns.

        between(), if given, is called outside the timed region before
        every `every`-th step and once after the last step.
        """
        steps = self.steps if steps is None else min(steps, self.steps)
        between = between or (lambda: None)
        if self.w.mode == "fit":
            lat = self._fit(steps, between, every)
        else:
            lat = self._monitor(steps, between, every)
        between()
        return lat

    def _fit(self, steps: int, between, every: int) -> np.ndarray:
        w = self.w
        cfg = rec.RecursionConfig(
            window=w.window,
            batch_in=w.batch_in,
            forget=w.batch_in,
            forgetting_factor=1.0,
            policy="warn",
            theta_mode="adaptive",
        )
        horseshoe = initial_horseshoe(self.spec, self.noise.n_outputs, scale=1.0, tau=1.0)
        state = rec.init(self.spec, cfg, self.samples[: w.window], self.noise, horseshoe)
        lat = np.empty(steps, dtype=np.int64)
        clock = time.perf_counter_ns
        record = None
        for i in range(steps):
            if i % every == 0:
                between()
            start = w.window + i * w.batch_in
            batch = self.samples[start : start + w.batch_in]
            t0 = clock()
            outcome = rec.step(state, batch)
            record = rec.step_record(state, outcome)
            json.dumps(record, sort_keys=True)
            lat[i] = clock() - t0
        self.state, self.final_record = state, record
        return lat

    def _monitor(self, steps: int, between, every: int) -> np.ndarray:
        w = self.w
        window = list(self.samples[: w.window])
        lat = np.empty(steps, dtype=np.int64)
        clock = time.perf_counter_ns
        record = None
        for i in range(steps):
            if i % every == 0:
                between()
            start = w.window + i * w.batch_in
            batch = self.samples[start : start + w.batch_in]
            t0 = clock()
            old = window[: w.batch_in]
            report = utility(self.spec, [s.state for s in batch], [s.state for s in old])
            window = (window[w.batch_in :] + batch)[-w.window :]
            pe = check_pe(self.spec, [s.state for s in window], ALPHA1)
            record = {
                "step": i + 1,
                "t": float(batch[-1].timestamp),
                "classification": report.classification,
                "kappa_min": float(report.kappas[0]),
                "kappa_max": float(report.kappas[-1]),
                "pe_min_avg_eig": pe.min_avg_eig,
                "pe_max_avg_eig": pe.max_avg_eig,
                "pe_satisfied": pe.satisfied,
            }
            json.dumps(record, sort_keys=True)
            lat[i] = clock() - t0
        self.final_record = record
        return lat

    def invariant_problems(self) -> list:
        """The window invariant: under warn with xi = 1 and forget = batch_in,
        the recursive posterior equals a batch fit of exactly the buffered
        samples at the current prior scales."""
        if self.w.mode != "fit":
            return []
        state = self.state
        post = rec.snapshot(state)
        ref = batch_fit(self.spec, state.buffer.items(), self.noise, state.horseshoe)
        problems = []
        for name, a, b in (
            ("information matrix", post.s_blocks, ref.s_blocks),
            ("information vector", post.b_blocks, ref.b_blocks),
            ("mean", post.mean_blocks(), ref.mean_blocks()),
        ):
            d = rel_diff(a, b)
            if not d <= INVARIANT_RTOL:
                problems.append(f"replay {name} is {d:.3g} (relative) from batch_fit of its window")
        return problems
