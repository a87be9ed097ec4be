"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload compound-desk --seed 1 --seconds 35 --trace 0

Run from the root of a checkout: the program is imported from ``src/``
there.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
full result, with the machine block and the end-to-end metrics also as raw
wall times, is written under ``.perfbench_work/results/``, and a traced run
writes its spans beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

# One BLAS thread: steady when other processes share the machine's
# processors.  Set before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent


def machine(seed: int) -> dict:
    import numpy as np

    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(BLAS_THREADS), "seed": seed}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "growtrain" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {ROOT / 'src' / 'growtrain'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".perfbench_work" / tag
    results = ROOT / ".perfbench_work" / "results"
    shutil.rmtree(work, ignore_errors=True)
    results.mkdir(parents=True, exist_ok=True)

    run = workloads.Run(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                        bool(args.trace), work)
    try:
        run.setup()
        run.measure()
        end_to_end = run.end_to_end()
        end_to_end_raw = run.end_to_end(scaled=False)
        per_layer = run.per_layer() if args.trace else {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    shown = per_layer if args.trace else end_to_end
    out = {"correct": not run.problems, "attempted": run.attempted, "failed": run.failed,
           "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()}}
    full = {"machine": machine(args.seed), "run": run.summary(),
            "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
            "end_to_end_raw": {k: {"value": v, "unit": u}
                               for k, (v, u) in end_to_end_raw.items()},
            "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()},
            **{k: out[k] for k in ("correct", "attempted", "failed")}}
    (results / f"{tag}.json").write_text(json.dumps(full, indent=1))
    if args.trace:
        run.tracer.write(results / f"{args.workload}-seed{args.seed}.spans.csv")
    print("machine: " + json.dumps(full["machine"]))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
