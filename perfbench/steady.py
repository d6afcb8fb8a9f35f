"""Steadiness check: two independent sets of benchmark runs, compared.

    python3 perfbench/steady.py

Runs every workload of BENCHMARK.json RUNS times in each of two sets, each
run `perfbench/run.py --trace 0` with its own seed (seeds 1-10, then 11-20).
For every workload and end-to-end metric this prints each set's median and
quartiles, the spread (Q3 - Q1) / median against the metric's bound from
BENCHMARK.json, and how much worse the second set's median is than the
first's, also against the bound. Exits 1 if a run is not correct, a spread is
over its bound or a second-set median is worse than the first by more than
the bound; the aim is spreads under a third of the bound.
"""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
RUNS = 10  # runs per set and workload


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list) -> tuple:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / med


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    seconds = bench["run_seconds"]

    values = {}  # (set, workload, metric) -> list
    bad = []
    started = time.time()
    for s in range(SETS):
        for k in range(RUNS):
            seed = 1 + s * RUNS + k
            for w in workloads:
                result = run_once(w, seed, seconds)
                if not result["correct"] or result["failed"]:
                    bad.append(f"set {s + 1} {w} seed {seed}: correct={result['correct']} "
                               f"failed={result['failed']}/{result['attempted']}")
                for m in metrics:
                    values.setdefault((s, w, m["name"]), []).append(result["metrics"][m["name"]]["value"])
                print(f"[{time.time() - started:7.0f}s] set {s + 1} seed {seed} {w} done", flush=True)

    report = {}
    worst = 0.0
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':24s} {'set':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s} {'spread/bound':>12s}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            stats = [summary(values[(s, w, name)]) for s in range(SETS)]
            for s, (med, q1, q3, spread) in enumerate(stats):
                ratio = spread / bound
                worst = max(worst, ratio)
                print(f"  {name:24s} {s + 1:3d} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{spread:8.4f} {bound:6.3f} {ratio:12.3f}")
            a, b = stats[0][0], stats[1][0]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            flag = "ok" if worse <= bound else "REGRESSION"
            print(f"  {'':24s} set 2 vs 1: {worse:+.4f} worse (bound {bound}) {flag}")
            if worse > bound:
                bad.append(f"{w} {name}: set 2 median {worse:+.3f} worse than set 1")
            report[f"{w}/{name}"] = [values[(s, w, name)] for s in range(SETS)]
    print(f"\nlargest spread/bound: {worst:.3f}")
    for line in bad:
        print("PROBLEM " + line)
    out = HERE / ".work" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    return 1 if bad or worst > 1.0 else 0


if __name__ == "__main__":
    sys.exit(main())
