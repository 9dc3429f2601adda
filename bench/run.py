"""Benchmark runner for eviq: one seeded workload per invocation.

    python3 bench/run.py --workload {retrieve,train,decode} --seed N \
        --seconds S --trace {0,1}

Runs from the root of a source checkout and imports `eviq` from its `src/`.
Prints each metric by name and unit, then a JSON record (environment,
output digest, workload-specific metrics), and as the last line a JSON
object with `correct`, `attempted`, `failed` and `metrics`.  With
`--trace 0` the metrics are the end-to-end ones, timed against a reference
loop and scaled to a reference host speed (see hostspeed.py); the
wall-clock figures are printed beside them.  With `--trace 1` they are the
per-layer ones from a traced pass, which follows an untraced pass so the
tracing overhead can be reported.  Scratch files live under
`.bench_work/` in the checkout and are removed on exit; a traced run leaves
its spans in `.bench_work/traces/`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("retrieve", "train", "decode"))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "eviq" / "__init__.py").is_file():
        print(f"error: no eviq package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # One BLAS thread: the load comes from one client in one process, and the
    # model's small matrices run slower split over threads.  Set before numpy
    # is first imported, so the library reads it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import eviq
    if Path(eviq.__file__).resolve().parent != SRC / "eviq":
        print(f"error: imported eviq from {eviq.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    trace_path = None
    if args.trace:
        (work_root / "traces").mkdir(exist_ok=True)
        trace_path = work_root / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        res = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                            workdir, trace_path=trace_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in res.named.items():
        print(f"{args.workload} {name} {value!r} {unit}")
    if res.per_layer is not None:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
        for name, value in res.per_layer.items():
            print(f"{args.workload} {name} {value!r} {units[name]}"
                  f"  (moves {workloads.LAYER_MAP[name]})")
    print(f"{args.workload} attempted {res.attempted} failed {res.failed}")
    print(json.dumps(res.record, sort_keys=True))
    if args.trace:
        metrics = {k: {"value": float(v), "unit": units[k]} for k, v in res.per_layer.items()}
    else:
        metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in res.end_to_end.items()}
    print(json.dumps({"correct": res.failed == 0, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
