#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/spread.py --workloads profile-grid scalar-calls \
        --seeds 1-10 [--trace 0|1] [--json OUT]

For each workload and metric it prints the median over seeds, the first
and third quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median, next to the metric's bound from BENCHMARK.json. The
host speed each run recorded (`host_loop_ms`, see run.py) is summarised
the same way.
Runs are sequential: one benchmark process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path, default=None, help="write the summary here")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary: dict[str, dict] = {}
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in args.seeds:
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: exit {proc.returncode}, {result}", file=sys.stderr)
                return 1
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            env = json.loads(proc.stderr.splitlines()[0].split(" env ", 1)[1])
            values.setdefault("host_loop_ms", []).append(env["host_loop_ms"])
            units["host_loop_ms"] = "ms"
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                if k in bounds) + f" host_loop_ms={env['host_loop_ms']}", file=sys.stderr)
        rows = {}
        print(f"\n{workload} ({len(args.seeds)} seeds, trace {args.trace})")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            rows[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3,
                          "spread": spread}
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = f"  bound {bound}" + ("  OVER 1/3" if spread > bound / 3 else "")
            print(f"  {name:38s} {med:>14.6g} {units[name]:6s} spread {spread:7.4f}{flag}")
        summary[workload] = rows
    if args.json:
        args.json.write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
