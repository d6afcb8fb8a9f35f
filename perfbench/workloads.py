"""The four benchmark workloads and the inputs they run on.

Every workload is a stream generated by `sparsid --mode simulate` from the
workload seed, plus the estimator settings the CLI is run with. Inputs are
generated outside every timed region and cached per (stream, seed) under
the benchmark's work directory.
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / ".work"
# workload names, metric names, units, directions and bounds
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

# BLAS pool size for every process the benchmark starts, and for itself.
# The matrices are at most 50x50, so one thread is also the fastest choice.
BLAS_THREADS = 1
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
    "OMP_NUM_THREADS": str(BLAS_THREADS),
    "MKL_NUM_THREADS": str(BLAS_THREADS),
}


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # "fit" or "monitor"
    case: str  # simulate case: "lorenz" or "case1"
    rows: int  # CSV data rows of the full stream
    tiny_rows: int  # CSV data rows for the self-test smoke run
    window: int
    batch_in: int
    degree: int
    include_bias: bool
    noise_variance: float  # both the generator's and the estimator's
    m: int = 0  # case1 only: regression inputs
    # coef_err_med is reported: the stream spans enough windows for the
    # median error to be steady across seeds (2000 lorenz-b1 steps span two
    # windows of a chaotic path and vary 8x across seeds)
    scored: bool = False

    def steps(self, rows: int) -> int:
        return (rows - self.window) // self.batch_in

    def switch_at(self, rows: int) -> int | None:
        return rows // 2 if self.case == "case1" else None

    def run_config(self) -> dict:
        """The CLI config file. `pipeline` is left at the CLI's default."""
        return {
            "window": self.window,
            "batch_in": self.batch_in,
            "forget": self.batch_in,
            "degree": self.degree,
            "policy": "warn",
            "theta_mode": "adaptive",
            "include_bias": self.include_bias,
            "noise_variances": self.noise_variance,
        }


LORENZ_DT = 0.01

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="lorenz-b1",
            mode="fit",
            case="lorenz",
            rows=3000,
            tiny_rows=1030,
            window=1000,
            batch_in=1,
            degree=2,
            include_bias=True,
            noise_variance=1.0,
        ),
        Workload(
            name="lorenz-b50",
            mode="fit",
            case="lorenz",
            rows=51000,
            tiny_rows=2000,
            window=1000,
            batch_in=50,
            degree=2,
            include_bias=True,
            noise_variance=1.0,
            scored=True,
        ),
        Workload(
            name="case1-m50",
            mode="fit",
            case="case1",
            rows=10200,
            tiny_rows=500,
            window=200,
            batch_in=10,
            degree=1,
            include_bias=False,
            noise_variance=0.1,
            m=50,
            scored=True,
        ),
        Workload(
            name="monitor-lorenz-b1",
            mode="monitor",
            case="lorenz",
            rows=3000,
            tiny_rows=1030,
            window=1000,
            batch_in=1,
            degree=2,
            include_bias=True,
            noise_variance=1.0,
        ),
    )
}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def sparsid_cmd(*args) -> list:
    """Command line of a `sparsid` process built from the checkout's source."""
    return [sys.executable, "-m", "sparsid.cli", *map(str, args)]


@dataclass(frozen=True)
class Inputs:
    data: Path  # full stream, with truth.json beside it
    truth: Path
    setup_data: Path  # warmup window plus one batch, no truth beside it
    config: Path  # CLI config file
    rows: int


def _simulate(w: Workload, rows: int, seed: int, out: Path) -> None:
    if w.case == "lorenz":
        args = ["--case", "lorenz", "--dt", LORENZ_DT, "--t-end", f"{(rows - 1) * LORENZ_DT:.2f}"]
        extra = {"lorenz_noise_std": w.noise_variance**0.5}
    else:
        args = ["--case", "case1", "--m", w.m, "--n", rows]
        extra = {"noise_variance": w.noise_variance, "switch_at": w.switch_at(rows)}
    cfg = out / "simulate.json"
    cfg.write_text(json.dumps(extra))
    proc = subprocess.run(
        sparsid_cmd("--mode", "simulate", *args, "--seed", seed, "--config", cfg, "--output", out),
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"simulate failed ({proc.returncode}): {proc.stderr.strip()}")


def make_inputs(w: Workload, seed: int, tiny: bool = False) -> Inputs:
    """Generate (or reuse) the workload's input stream for this seed."""
    rows = w.tiny_rows if tiny else w.rows
    # lorenz-b1 and monitor-lorenz-b1 share one stream
    base = WORK / "inputs" / f"{w.case}-{rows}-seed{seed}"
    data = base / "stream" / "data.csv"
    if not data.exists():
        tmp = base.with_name(base.name + f".tmp{os.getpid()}")
        shutil.rmtree(tmp, ignore_errors=True)
        (tmp / "stream").mkdir(parents=True)
        _simulate(w, rows, seed, tmp / "stream")
        with open(tmp / "stream" / "data.csv") as fh:
            head = [next(fh) for _ in range(1 + w.window + w.batch_in)]
        (tmp / "setup").mkdir()
        (tmp / "setup" / "data.csv").write_text("".join(head))
        shutil.rmtree(base, ignore_errors=True)
        os.replace(tmp, base)
    config = WORK / "configs" / f"{w.name}.json"
    config.parent.mkdir(parents=True, exist_ok=True)
    config.write_text(json.dumps(w.run_config(), sort_keys=True))
    return Inputs(
        data=data,
        truth=base / "stream" / "truth.json",
        setup_data=base / "setup" / "data.csv",
        config=config,
        rows=rows,
    )
