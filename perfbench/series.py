"""Run the benchmark repeatedly and summarise the spread of its metrics.

    python3 perfbench/series.py

For every workload in BENCHMARK.json, at its ``run_seconds``: ten pairs
of runs, one run of set 0 and one of set 1 per pair, each run one
``run.py`` process with its own seed: set s, pair i uses seed
``100 * s + i + 1``.  The order within a pair alternates (0 then 1, then
1 then 0), so host drift falls on both sets alike.  For every workload,
set and end-to-end metric the summary gives the median, the quartiles
(``statistics.quantiles(n=4)``) and the spread (q3 - q1) / median, and
the change of the median from set 0 to set 1.  Raw results go to
``perfbench/out/series-<time>.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
PAIRS = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600, check=False)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result.update(workload=workload, seed=seed, elapsed_s=elapsed)
    return result


def summarise(runs: list) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                     "values": values}
    return out


def main() -> int:
    results = []
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        for i in range(PAIRS):
            for s in ((0, 1) if i % 2 == 0 else (1, 0)):
                r = run_once(workload, 100 * s + i + 1, BENCHMARK["run_seconds"])
                r["set"] = s
                results.append(r)
                print(f"{workload} set {s} seed {r['seed']}: correct={r['correct']} "
                      f"failed={r['failed']}/{r['attempted']} elapsed={r['elapsed_s']:.1f}s "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()),
                      flush=True)
        sets = [summarise([r for r in results if r["workload"] == workload and r["set"] == s])
                for s in (0, 1)]
        for name in sets[0]:
            line = " | ".join(f"set {s}: median {m[name]['median']:.6g} "
                              f"q1 {m[name]['q1']:.6g} q3 {m[name]['q3']:.6g} "
                              f"spread {m[name]['spread']:.2%}" for s, m in enumerate(sets))
            line += f" | change {sets[1][name]['median'] / sets[0][name]['median'] - 1:+.2%}"
            print(f"{workload} {name}: {line}", flush=True)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"series-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(results, indent=1))
    print(f"raw results: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
