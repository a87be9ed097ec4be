"""Steadiness check: run every workload repeatedly and report each metric's
spread, the figure the bounds in BENCHMARK.json are set from.

    python3 perfbench/steady.py --runs 10 --first-seed 100

Run from the root of a checkout.  Each run is its own untraced process
(``perfbench/run.py``) of ``run_seconds`` from BENCHMARK.json, with seeds
``first-seed .. first-seed + runs - 1``; the order of the workloads
alternates between passes.  For every end-to-end metric it prints the
median, the quartiles and the relative spread (q3 - q1) / median, as
``statistics.quantiles(n=4)`` gives them, and the share of failed
operations of each run.  The summary is also written to
``.perfbench_work/results/steady-<first-seed>.json``; two summaries of the
same code can then be compared median by median.  It exits 1 if a run
exits non-zero or reports an incorrect output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=100)
    args = ap.parse_args(argv)

    values = {w: {} for w in names}
    fails = {w: [] for w in names}
    ok = True
    for i in range(args.runs):
        seed = args.first_seed + i
        for w in (names if i % 2 == 0 else names[::-1]):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", "0"]
            began = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            took = time.perf_counter() - began
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            res = json.loads(lines[-1])
            ok &= res["correct"]
            fails[w].append(res["failed"] / res["attempted"])
            for name, m in res["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} ({took:.1f} s)",
                  flush=True)

    summary = {}
    for w in names:
        print(f"\n{w}: failed share per run {sorted(set(fails[w]))}")
        print(f"  {'metric':40} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
        summary[w] = {}
        for name, vals in values[w].items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            summary[w][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                "n": len(vals)}
            print(f"  {name:40} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f}")
    out = ROOT / ".perfbench_work" / "results" / f"steady-{args.first_seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"args": vars(args), "summary": summary,
                               "failed_share": fails}, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
