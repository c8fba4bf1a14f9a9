"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nothing else.  One process runs one
workload, single-threaded, as a closed loop with one caller: every op of
the workload once per round, in the seed's order, rounds repeated while
the next one, taking as long as the last, would end within
``--seconds``.  Every output is checked (see ``workloads`` and
``oracles``).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
package's layers (see ``tracing``), reports the per-layer metrics per
round and writes the spans to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7
# Modules dropped from sys.modules before each timed set-up, so that every
# set-up imports the package afresh (from its cached bytecode).
FRESH = ("crystal_polytope", "workloads", "oracles")


def import_package() -> None:
    """Import the package from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    for path in (str(src), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import crystal_polytope

    if Path(crystal_polytope.__file__).resolve().parent.parent != src:
        raise ImportError(f"crystal_polytope was imported from {crystal_polytope.__file__}, "
                          f"not from {src}")


def setup(name: str, seed: int, small: bool = False):
    """Build the inputs from the seed and run the warm-up op once, checked."""
    import workloads

    wl = workloads.build(name, seed, small)
    if wl.warmup.check(wl.warmup.call(), {}) is not True:
        raise RuntimeError(f"warm-up op {wl.warmup.name} failed")
    return wl


def timed_setup(name: str, seed: int) -> tuple:
    """Import the package afresh and set the workload up; returns it and the seconds taken."""
    for mod in [m for m in sys.modules if m.split(".")[0] in FRESH]:
        del sys.modules[mod]
    start = time.perf_counter()
    import_package()
    wl = setup(name, seed)
    return wl, time.perf_counter() - start


def _fingerprint(out) -> bytes:
    return hashlib.blake2b(repr(out).encode(), digest_size=16).digest()


def _p99(sorted_values: list):
    """Nearest-rank 99th percentile of an ascending list."""
    return sorted_values[-(-len(sorted_values) * 99 // 100) - 1]


def measure(wl, seconds: float, tracer=None) -> dict:
    """Run whole rounds of the workload's ops and check every output.

    An output whose fingerprint matches one already checked for the same
    op gets that op's verdict; any other output is checked in full.
    Times are taken per round (the round's total, median op and p99 op)
    and reported as their medians over the rounds.
    """
    from oracles import WrongOutput

    ops = wl.ops
    seen = [None] * len(ops)
    verdicts = [True] * len(ops)
    round_s, round_p50, round_p99, errors = [], [], [], []
    attempted = failed = 0
    begin = time.perf_counter()
    while True:
        outs, op_ns = [], []
        start = time.perf_counter()
        for i, op in enumerate(ops):
            t0 = time.perf_counter_ns()
            try:
                out = op.call() if tracer is None else tracer.run_op(i, op.name, op.call)
            except Exception as exc:  # an op that raises is a wrong output, reported below
                out = exc
            op_ns.append(time.perf_counter_ns() - t0)
            outs.append(out)
        round_s.append(time.perf_counter() - start)
        op_ns.sort()
        round_p50.append(statistics.median(op_ns) / 1e6)
        round_p99.append(_p99(op_ns) / 1e6)
        if tracer is not None:
            tracer.keep_spans = False
        by_name = {op.name: out for op, out in zip(ops, outs)}
        for i, (op, out) in enumerate(zip(ops, outs)):
            fp = _fingerprint(out)
            if fp == seen[i]:
                continue
            try:
                if isinstance(out, Exception):
                    raise WrongOutput(f"raised {out!r}")
                verdicts[i] = op.check(out, by_name)
            except (WrongOutput, LookupError, TypeError, ValueError) as exc:
                errors.append(f"{op.name}: {exc}")
                verdicts[i] = False
            seen[i] = fp
        del outs, by_name
        attempted += len(ops)
        failed += verdicts.count(False)
        if time.perf_counter() - begin + round_s[-1] > seconds:
            break
    return {
        "correct": not errors,
        "errors": errors,
        "attempted": attempted,
        "failed": failed,
        "rounds": len(round_s),
        "wall_s": statistics.median(round_s),
        "op_p50_ms": statistics.median(round_p50),
        "query_p99_ms": statistics.median(round_p99),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["ladder", "point-queries", "polytope-dilate", "valuation-span"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    try:
        import_package()
    except ImportError as exc:
        print(f"error: cannot import the package from this checkout: {exc}", file=sys.stderr)
        return 1

    setups = []
    for _ in range(SETUP_REPEATS):
        wl, elapsed = timed_setup(args.workload, args.seed)
        setups.append(elapsed)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install("crystal_polytope")
    res = measure(wl, args.seconds, tracer)
    for line in res["errors"]:
        print(f"wrong output: {line}", file=sys.stderr)

    if tracer is None:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": res["wall_s"], "unit": "s"},
            "op_p50_ms": {"value": res["op_p50_ms"], "unit": "ms"},
            "query_p99_ms": {"value": res["query_p99_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    else:
        metrics = tracer.metrics(res["rounds"])
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"trace-{args.workload}-seed{args.seed}.json",
                    {"workload": args.workload, "seed": args.seed, "rounds": res["rounds"],
                     "traced_wall_s": res["wall_s"], "ops": [op.name for op in wl.ops]})
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
