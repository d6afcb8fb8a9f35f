"""sparsid benchmark: one workload, one seed, one measurement.

    python3 perfbench/run.py --workload lorenz-b1 --seed 1 --seconds 22 --trace 0

Run from the root of a checkout. The workload's input stream is generated
from the seed with `sparsid --mode simulate` (not timed). With --trace 0 the
benchmark then repeats, until --seconds is spent, a round of

- one fresh `sparsid` process over the whole stream (rows per CPU-second,
  peak RSS),
- SETUPS_PER_ROUND fresh `sparsid` processes over the warmup window plus one
  batch (set-up), each after one run of the calibration kernel,
- in the first rounds, one single-threaded in-process replay of the CLI loop
  (per-step latency),

checks every output, and prints the end-to-end metrics. With --trace 1 it
alternates untraced and traced `sparsid` processes over the whole stream and
prints the per-layer metrics. The metric names and units are read from
BENCHMARK.json. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. `attempted` counts the steps
the `sparsid` processes were asked to emit; `failed` counts those not
accepted plus all steps of a process that exited non-zero or failed a check.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import BENCH, BLAS_ENV, BLAS_THREADS, ROOT, SRC, WORK, WORKLOADS, child_env, make_inputs, sparsid_cmd

os.environ.update(BLAS_ENV)  # pins this process's BLAS pool; must precede numpy

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
import spans  # noqa: E402

# Reported where a workload does not score a metric (no coefficients in
# monitor mode, too few windows in lorenz-b1, no switch in the Lorenz
# streams), so the value is never 0 and never moves.
NOT_APPLICABLE = 1.0
MIN_ROUNDS = 3
# set-up is mostly interpreter and package import, whose time moves by
# +-20% from one process to the next, so each round takes more than one
SETUPS_PER_ROUND = 2
REPLAY_PASSES = 3
REPLAY_STEPS = 1000  # the first steps of the stream, timed in every pass
REPLAY_CHUNK = 100  # replay steps between two calibration kernel runs
PROCESS_TIMEOUT_S = 120.0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="short streams, for the self-tests")
    return p.parse_args(argv)


# ------------------------------------------------------------------ processes


class Proc:
    def __init__(self, wall_s: float, cpu_s: float, rss_mb: float, code: int):
        self.wall_s, self.cpu_s, self.rss_mb, self.code = wall_s, cpu_s, rss_mb, code


def run_sparsid(cmd: list, log: Path) -> Proc:
    """Run one process to completion; wall time from spawn to reap, CPU time
    and peak RSS from the kernel's resource usage of that child."""
    with open(log, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, env=child_env(), stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err
        )
        killer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return Proc(wall, cpu, usage.ru_maxrss / 1024.0, proc.returncode)


class Session:
    """The `sparsid` processes of one benchmark run and their checks."""

    def __init__(self, w, inputs, shape):
        self.w, self.inputs, self.shape = w, inputs, shape
        self.steps = w.steps(inputs.rows)
        self.out = WORK / "runs" / w.name
        self.out.mkdir(parents=True, exist_ok=True)
        self.problems: list = []
        self.accounts: list = []  # [expected steps, failed steps, is a full run]
        self.sha = None
        self.records = None  # records of the first full run

    @property
    def output_name(self) -> str:
        return "steps.jsonl" if self.w.mode == "fit" else "monitor.jsonl"

    def _cmd(self, data: Path, out: Path) -> list:
        return [
            "--mode", self.w.mode, "--config", self.inputs.config,
            "--input", data, "--output", out,
        ]

    def _account(self, proc: Proc, path: Path, expected: int, full: bool, label: str):
        problems = [] if proc.code == 0 else [f"exit code {proc.code}"]
        records, found = [], []
        if proc.code == 0:
            records, found = checks.check_records(path, self.w.mode, expected, self.shape)
            problems += found
        if full and not problems:
            sha = checks.sha256(path)
            if self.sha is None:
                self.sha, self.records = sha, records
            elif sha != self.sha:
                problems.append("output differs from the session's first run")
        self.problems += [f"{label}: {p}" for p in problems]
        rejected = sum(1 for r in records if r.get("accepted") is False)
        self.accounts.append([expected, expected if problems else rejected, full])
        return records

    def full_run(self, traced: bool = False):
        out = self.out / ("traced" if traced else "full")
        out.mkdir(exist_ok=True)
        args = self._cmd(self.inputs.data, out)
        if traced:
            cmd = [sys.executable, str(Path(__file__).with_name("traced_cli.py")), out / "spans.json"]
            proc = run_sparsid(cmd + [str(a) for a in args], out / "stderr.txt")
        else:
            proc = run_sparsid(sparsid_cmd(*args), out / "stderr.txt")
        path = out / self.output_name
        records = self._account(proc, path, self.steps, True, "traced run" if traced else "full run")
        return proc, records, path

    def setup_run(self) -> Proc:
        out = self.out / "setup"
        out.mkdir(exist_ok=True)
        proc = run_sparsid(sparsid_cmd(*self._cmd(self.inputs.setup_data, out)), out / "stderr.txt")
        self._account(proc, out / self.output_name, 1, False, "setup run")
        return proc

    def replay_checks(self, replay) -> None:
        found = replay.invariant_problems()
        if self.records:
            found += checks.compare_final(self.records[-1], replay.final_record, self.w.mode)
        self.problems += found
        if found:  # the full runs' outputs are not trusted any more
            for account in self.accounts:
                if account[2]:
                    account[1] = account[0]

    @property
    def attempted(self) -> int:
        return sum(a[0] for a in self.accounts)

    @property
    def failed(self) -> int:
        return sum(a[1] for a in self.accounts)


def rounds(seconds: float, body, minimum: int) -> int:
    """Call body() until the next call would end past the deadline."""
    deadline = time.perf_counter() + seconds
    n = 0
    while True:
        start = time.perf_counter()
        body(n)
        n += 1
        now = time.perf_counter()
        if n >= minimum and now + (now - start) > deadline:
            return n


# -------------------------------------------------------------------- metrics


def accuracy(session, replay) -> dict:
    w = session.w
    if not w.scored or not session.records:
        return {"coef_err_med": NOT_APPLICABLE, "switch_recovery_steps": NOT_APPLICABLE}
    truth = checks.load_truth(session.inputs.truth, replay.spec.column_labels)
    steps, errors, truths = checks.error_trace(session.records, truth)
    return {
        "coef_err_med": checks.coef_err_med(steps, errors, w.window // w.batch_in),
        "switch_recovery_steps": checks.switch_recovery_steps(errors, truths)
        if w.switch_at(session.inputs.rows) is not None
        else NOT_APPLICABLE,
    }


def scaled_replay(replay, steps=None) -> tuple:
    """One replay pass; (raw, scaled) per-step latencies in us, each chunk of
    REPLAY_CHUNK steps scaled by the kernel runs on either side of it, and
    the kernel times in s."""
    kernel = []
    raw = replay.run(steps, between=lambda: kernel.append(calibrate.kernel()), every=REPLAY_CHUNK)
    raw = raw / 1e3
    kernel = np.array(kernel)
    factors = calibrate.NOMINAL_S / (0.5 * (kernel[:-1] + kernel[1:]))
    return raw, raw * factors[np.arange(raw.size) // REPLAY_CHUNK], kernel


def measure(session, replay, seconds: float) -> tuple:
    full, setup, latencies, raw_latencies, kernels = [], [], [], [], []

    def body(n):
        full.append(session.full_run()[0])
        for _ in range(SETUPS_PER_ROUND):
            kernels.append(calibrate.kernel())
            setup.append(session.setup_run())
        if n < REPLAY_PASSES:
            # the first pass covers the whole stream, for the replay checks
            raw, scaled, kernel = scaled_replay(replay, None if n == 0 else REPLAY_STEPS)
            raw_latencies.append(raw[:REPLAY_STEPS])
            latencies.append(scaled[:REPLAY_STEPS])
            kernels.extend(kernel)
        if n == 0:
            session.replay_checks(replay)

    rounds(seconds, body, max(MIN_ROUNDS, REPLAY_PASSES))
    lat_us = np.array(latencies)  # (pass, step)
    raw_us = np.array(raw_latencies)
    setup_s = statistics.median(p.wall_s for p in setup)
    kernel_s = float(np.median(kernels))
    metrics = {
        "rows_per_cpu_s": statistics.median(session.inputs.rows / p.cpu_s for p in full),
        "step_p50_us": float(np.percentile(lat_us, 50)),
        # each step at its best pass: the tail of single samples is the
        # host's interruptions, the tail of best-of-passes is the program's
        "step_p99_us": float(np.percentile(lat_us.min(axis=0), 99)),
        # scaled, like the latencies, to the host speed at which the
        # calibration kernel takes NOMINAL_S, by the run's median kernel time
        "setup_s": setup_s * calibrate.NOMINAL_S / kernel_s,
        "peak_rss_mb": statistics.median(p.rss_mb for p in full),
        **accuracy(session, replay),
    }
    samples = {
        "full_runs": len(full),
        "setup_runs": len(setup),
        "latency_steps": lat_us.shape[1],
        "replay_passes": lat_us.shape[0],
        "rows_per_wall_s": statistics.median(session.inputs.rows / p.wall_s for p in full),
        "full_wall_s": [p.wall_s for p in full],
        "full_cpu_s": [p.cpu_s for p in full],
        "setup_wall_s": [p.wall_s for p in setup],
        "setup_cpu_s": [p.cpu_s for p in setup],
        "kernel_ms_median": kernel_s * 1e3,
        "unscaled_setup_s": setup_s,
        "unscaled_step_p50_us": float(np.percentile(raw_us, 50)),
        "unscaled_step_p99_us": float(np.percentile(raw_us.min(axis=0), 99)),
    }
    return metrics, samples


def measure_traced(session, replay, seconds: float) -> tuple:
    untraced, traced, layers = [], [], []
    rows_in = session.steps * session.w.batch_in

    def body(n):
        untraced.append(session.full_run()[0])
        proc, records, path = session.full_run(traced=True)
        traced.append(proc)
        if proc.code == 0 and records:
            with open(path.with_name("spans.json")) as fh:
                spans_ = json.load(fh)
            layers.append(spans.layer_metrics(spans_, records, rows_in, path.stat().st_size))

    rounds(seconds, body, 2)
    replay.run()
    session.replay_checks(replay)
    if not layers:
        raise RuntimeError("no traced run succeeded")
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    metrics["trace_overhead_frac"] = (
        statistics.median(p.wall_s for p in traced) / statistics.median(p.wall_s for p in untraced)
        - 1.0
    )
    return metrics, {"untraced_runs": len(untraced), "traced_runs": len(traced)}


# -------------------------------------------------------------------- machine


def _blas_threads() -> dict:
    """Thread count of every OpenBLAS library loaded in this process."""
    import ctypes

    found = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return found
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(lib).name] = fn()
                break
    return found


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _tree_sha256(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.rglob("*.py")):
        h.update(str(f.relative_to(path)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def machine_record(seed: int) -> dict:
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads": _blas_threads(),
        "git_sha": _git_sha(),
        "src_sha256": _tree_sha256(SRC),
        "seed": seed,
    }


# ----------------------------------------------------------------------- main


def main(argv=None) -> int:
    args = parse_args(argv)
    # end on SIGTERM through SystemExit, so a running `sparsid` child is killed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "sparsid" / "cli.py").is_file():
        print(f"no sparsid sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from replay import Replay  # imports sparsid

    w = WORKLOADS[args.workload]
    inputs = make_inputs(w, args.seed, tiny=args.tiny)
    replay = Replay(w, inputs.data)
    shape = (replay.noise.n_outputs, replay.spec.n_columns)
    session = Session(w, inputs, shape)
    replay.run(steps=20)  # warm the replay's code paths; not timed
    if args.trace:
        metrics, samples = measure_traced(session, replay, args.seconds)
    else:
        metrics, samples = measure(session, replay, args.seconds)
    declared = BENCH["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": not session.problems,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]} for m in declared},
    }
    record = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "rows": inputs.rows,
        "steps_per_run": session.steps,
        "samples": samples,
        "problems": session.problems,
        "machine": machine_record(args.seed),
        **result,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    tiny = "-tiny" if args.tiny else ""
    (results / f"{w.name}-seed{args.seed}-trace{args.trace}{tiny}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True)
    )
    for problem in session.problems:
        print(f"CHECK FAILED {problem}")
    print(f"{w.name} seed {args.seed}: {inputs.rows} rows, {session.steps} steps per run, samples {samples}")
    for m in declared:
        print(f"  {m['name']:34s} {metrics[m['name']]:14.6g} {m['unit']}")
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
