#!/usr/bin/env python3
"""Smoke test of the benchmark itself, every workload at tiny size.

    python3 perfbench/selftest.py

Asserts that every metric named in BENCHMARK.json appears with its unit,
that traced self times account for the traced in-process wall time up to
the measured tracing overhead, that `oracle` is never called outside the
verify-suite, and that the benchmark refuses to run (non-zero exit, no
result line) in a directory without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: Path, workload: str, trace: int) -> tuple[int, str]:
    cmd = [*BENCH["command"], "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--scale", "0.1"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout


def check_workload(workload: str) -> None:
    for trace, spec in ((0, BENCH["end_to_end"]), (1, BENCH["per_layer"])):
        rc, out = run(ROOT, workload, trace)
        assert rc == 0, f"{workload} trace {trace}: exit {rc}"
        result = json.loads(out.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
        metrics = result["metrics"]
        assert {m["name"]: m["unit"] for m in spec} == {k: v["unit"] for k, v in metrics.items()}
        value = {k: v["value"] for k, v in metrics.items()}
        if trace == 0:
            assert all(v > 0 for v in value.values()), value
            continue
        if workload == "verify-suite":
            assert value["oracle.calls"] > 0 and value["verify.run_checks_s"] > 0
        else:
            assert value["oracle.calls"] == 0, value["oracle.calls"]
        overhead = abs(value["trace.wall_s"] - value["trace.untraced_wall_s"])
        inside, self_sum = value["trace.child_s"], value["trace.self_sum_s"]
        assert 0 < self_sum <= inside, (self_sum, inside)
        assert inside - self_sum <= overhead + 0.05 * inside, (inside, self_sum, overhead)
        print(f"ok {workload}: self {self_sum:.3f} s of {inside:.3f} s traced, "
              f"overhead {value['trace.overhead_ratio']:+.2f}")


def check_refuses_without_sources() -> None:
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCH["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        rc, out = run(bare, BENCH["workloads"][0]["name"], 0)
        assert rc != 0 and '"correct"' not in out, (rc, out)
        print("ok refuses to run without the package sources")
    finally:
        shutil.rmtree(bare)
        try:
            scratch.rmdir()
        except OSError:  # still in use by another run
            pass


def main() -> int:
    for w in BENCH["workloads"]:
        check_workload(w["name"])
    check_refuses_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
