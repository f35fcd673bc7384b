#!/usr/bin/env python3
"""casimir-slab benchmark: three seeded workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src, never from an installed copy. Workloads (see BENCHMARK.json):

  profile-grid   `profile`, `profile --subtracted` and `fluctuations` CLI
                 invocations, one fresh process each; once per run, six
                 error-contract probes (untimed).
  verify-suite   `casimir-slab verify` (full budgets) as a fresh process.
                 Its inputs are fixed inside the package, so --seed has no
                 effect on it.
  scalar-calls   scattered in-process calls to the scalar core/specfun API,
                 in worker processes of a few seconds each that never
                 import the CLI or numpy.

A pass is one run of a workload's operation list; passes repeat until
--seconds have elapsed. --trace 0 reports the end-to-end metrics, from
untraced passes. --trace 1 also runs traced passes (alternating with
untraced ones; for scalar-calls, alternating traced and untraced
workers) and reports per-layer counters and self times (medians over
traced passes) with the tracing overhead. Every output is checked
against independent references (reference.py). A human-readable report
goes to stderr; the last line of stdout is one JSON object {correct,
attempted, failed, metrics}.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import digests  # noqa: E402
import reference  # noqa: E402
from workloads import probes, profile_grid_ops  # noqa: E402

CHILD = str(HERE / "child.py")
OP_TIMEOUT_S = 150
SCALAR_SEGMENT_S = 3.0  # one scalar worker runs this long; set-up samples lie between
SCALAR_SETUP_PER_GAP = 3
MIN_PASSES = 2
SCALAR_CALLS_PER_PASS = 14000
SCALAR_CHECKS_PER_PASS = 14
ROWS_CHECKED_PER_OUTPUT = 12

UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "rows_per_s": "1/s",
    "calls_per_s": "1/s",
    "call_p50_us": "us",
    "call_p99_us": "us",
    "peak_rss_mb": "MB",
}
END_TO_END = tuple(UNITS)

_CORE_FNS = ("em_stress", "scalar_stress", "em_fluctuations", "subtracted_profile",
             "base_energy_density", "f_profile", "f_tilde")
_ORACLE_FNS = ("image_profile_sum", "green_mode_sum", "cutoff_casimir_energy",
               "profile_energy_integral")


def _per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for fn in ("riemann_zeta", "gamma"):
        units.update({f"specfun.{fn}.calls": "count", f"specfun.{fn}.self_s": "s",
                      f"specfun.{fn}.distinct_ratio": "ratio"})
    units.update({"specfun.hurwitz_zeta.calls": "count", "specfun.hurwitz_zeta.self_s": "s",
                  "specfun.self_s": "s"})
    units.update({"core.points": "count", "core.self_s": "s", "core.us_per_point": "us",
                  "core.repeat_dl_share": "ratio"})
    for fn in _CORE_FNS:
        units.update({f"core.{fn}.calls": "count", f"core.{fn}.self_s": "s"})
    units.update({"oracle.calls": "count", "oracle.self_s": "s"})
    for fn in _ORACLE_FNS:
        units.update({f"oracle.{fn}.calls": "count", f"oracle.{fn}.self_s": "s"})
    units.update({
        "verify.run_checks_s": "s", "verify.self_s": "s", "verify.min_headroom": "ratio",
        "cli.import_s": "s", "numpy.import_s": "s", "cli.main.self_s": "s",
        "cli.output_bytes": "bytes", "cli.digest_match": "count",
        "cli.contract_probes": "count", "cli.contract_failed": "count",
        "failed_ratio": "ratio", "call_samples": "count", "setup_samples": "count",
        "trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_ratio": "ratio",
        "trace.self_sum_s": "s", "trace.child_s": "s", "trace.unattributed_s": "s",
        "trace.spans": "count",
    })
    return units


PER_LAYER_UNITS = _per_layer_units()


class BenchError(Exception):
    """The benchmark cannot run here (for example: no source tree)."""


# ----------------------------------------------------------------- helpers

def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (inclusive method), 0 <= q <= 100."""
    data = sorted(values)
    if len(data) == 1:
        return float(data[0])
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return float(data[lo] + (data[hi] - data[lo]) * (pos - lo))


def child_env() -> dict[str, str]:
    """The parent environment minus CASIMIR_* knobs, importing ./src first."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("CASIMIR_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Runner:
    """Starts one child process at a time, waits for it, times it."""

    def __init__(self, tmp: Path) -> None:
        self.tmp = tmp
        self.env = child_env()

    def run(self, argv: list[str]) -> tuple[int, bytes, bytes, float]:
        t0 = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, env=self.env, cwd=ROOT,
                              timeout=OP_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - t0

    def python(self, *args: str) -> tuple[int, bytes, bytes, float]:
        return self.run([sys.executable, *args])

    def import_time(self, module: str) -> float:
        """Seconds a fresh interpreter takes to import `module` from ./src."""
        code = (
            "import time; t = time.perf_counter(); "
            f"import {module} as m; d = time.perf_counter() - t; print(d); print(m.__file__)"
        )
        rc, out, err, _ = self.python("-c", code)
        if rc != 0:
            raise BenchError(f"cannot import {module}: {err.decode(errors='replace')}")
        elapsed, path = out.decode().split("\n")[:2]
        if not Path(path).resolve().is_relative_to(ROOT / "src"):
            raise BenchError(f"{module} imported from {path}, not from ./src")
        return float(elapsed)

    def import_times(self, module: str) -> dict[str, float]:
        """Median cumulative `-X importtime` seconds of casimir_slab.cli and numpy."""
        found: dict[str, list[float]] = {"cli.import_s": [], "numpy.import_s": []}
        names = {"casimir_slab.cli": "cli.import_s", "numpy": "numpy.import_s"}
        for _ in range(5):
            _, _, err, _ = self.python("-X", "importtime", "-c", f"import {module}")
            seen = dict.fromkeys(found, 0.0)
            for line in err.decode().splitlines():
                parts = line.split("|")
                if len(parts) == 3 and parts[2].strip() in names:
                    seen[names[parts[2].strip()]] = int(parts[1]) * 1e-6
            for k, v in seen.items():
                found[k].append(v)
        return {k: median(v) for k, v in found.items()}


def sum_summaries(summaries: list[dict]) -> dict[str, float]:
    total: Counter = Counter()
    for s in summaries:
        total.update(s)
    return dict(total)


def layer_metrics(raw: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced pass from its summed span counters."""
    g = lambda k: float(raw.get(k, 0.0))  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    m: dict[str, float] = {}
    for fn in ("riemann_zeta", "gamma"):
        calls = g(f"specfun.{fn}.calls")
        m[f"specfun.{fn}.calls"] = calls
        m[f"specfun.{fn}.self_s"] = g(f"specfun.{fn}.self_s")
        m[f"specfun.{fn}.distinct_ratio"] = ratio(g(f"specfun.{fn}.distinct"), calls)
    m["specfun.hurwitz_zeta.calls"] = g("specfun.hurwitz_zeta.calls")
    m["specfun.hurwitz_zeta.self_s"] = g("specfun.hurwitz_zeta.self_s")
    m["specfun.self_s"] = g("specfun.self_s")
    m["core.points"] = g("core.points")
    m["core.self_s"] = g("core.self_s")
    m["core.us_per_point"] = ratio(g("core.top_s") * 1e6, g("core.points"))
    m["core.repeat_dl_share"] = ratio(g("core.dl_repeats"), g("core.dl_calls"))
    for fn in _CORE_FNS:
        m[f"core.{fn}.calls"] = g(f"core.{fn}.calls")
        m[f"core.{fn}.self_s"] = g(f"core.{fn}.self_s")
    m["oracle.calls"] = sum(v for k, v in raw.items()
                            if k.startswith("oracle.") and k.endswith(".calls"))
    m["oracle.self_s"] = g("oracle.self_s")
    for fn in _ORACLE_FNS:
        m[f"oracle.{fn}.calls"] = g(f"oracle.{fn}.calls")
        m[f"oracle.{fn}.self_s"] = g(f"oracle.{fn}.self_s")
    m["verify.run_checks_s"] = g("verify.run_checks_s")
    m["verify.self_s"] = g("verify.self_s")
    m["cli.main.self_s"] = g("cli.main.self_s")
    m["trace.self_sum_s"] = g("trace.self_sum_s")
    m["trace.child_s"] = g("trace.child_s")
    m["trace.spans"] = g("trace.spans")
    return m


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {k: median([p[k] for p in passes]) for k in passes[0]} if passes else {}


# ------------------------------------------------------- output parsing

def parse_table(data: bytes, fmt: str) -> tuple[list[str], list[list]]:
    text = data.decode()
    if fmt == "json":
        doc = json.loads(text)
        return doc["columns"], doc["rows"]
    lines = text.split("\n")
    if not lines[0].startswith("# units:") or lines[-1] != "" or "\r" in text:
        raise ValueError("CSV framing")
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:-1]))))
    return rows[0], rows[1:]


_FIELD_COLUMNS = {"t00": "t00", "tzz": "tzz", "t_transverse": "t_transverse", "trace": "trace",
                  "ez2": "Ez2", "ei2": "Ei2", "biz2": "Biz2", "bij2": "Bij2"}


def check_table(op, data: bytes, rng_seed: int) -> bool:
    """Recompute a seeded subset of rows (plus both ends) independently."""
    columns, rows = parse_table(data, op.fmt)
    if len(rows) != op.rows:
        return False
    col = {name: i for i, name in enumerate(columns)}
    length, n = op.length, op.samples
    pick = random.Random(rng_seed).sample(range(len(rows)), min(ROWS_CHECKED_PER_OUTPUT, len(rows)))
    for r in sorted(set(pick) | {0, len(rows) - 1}):
        row = rows[r]
        if op.subtracted:
            if r < n:
                z, region = -length * (n - 1 - r + 0.5) / n, "left-exterior"
            elif r < 2 * n:
                z, region = length * (r - n + 0.5) / n, "interior"
            else:
                z, region = length + length * (r - 2 * n + 0.5) / n, "right-exterior"
            want = reference.subtracted_stress(op.dim, length, op.bc, z)
        else:
            z, region = length * (r + 0.5) / n, "interior"
            if op.command == "fluctuations":
                want = reference.em_fluctuations(op.dim, length, op.bc, z)
            elif op.theory == "maxwell":
                want = reference.em_stress(op.dim, length, op.bc, z)
            else:
                want = reference.scalar_stress(op.dim, length, op.bc, z,
                                               op.theory == "scalar-improved")
        if abs(float(row[col["z"]]) - z) > 1e-11 * abs(z):
            return False
        if "region" in col and row[col["region"]] != region:
            return False
        for field, expected in want.items():
            if reference.mismatch(float(row[col[_FIELD_COLUMNS[field]]]), expected):
                return False
    return True


def check_scalar(spec: list, got: dict[str, float] | None) -> bool:
    if got is None:
        return False
    name, *params = spec
    want = getattr(reference, name)(*params)
    return set(want) == set(got) and not any(
        reference.mismatch(got[k], want[k]) for k in want
    )


def contract_ok(rc: int, err: bytes) -> bool:
    """Error contract: exit 2 with exactly one line on stderr, no traceback."""
    return rc == 2 and len(err.decode(errors="replace").strip().splitlines()) == 1


# ------------------------------------------------------------- workloads

@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    e2e: dict[str, float] = field(default_factory=dict)
    layer: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    outputs: dict[int, bytes] = field(default_factory=dict)  # first stdout of each CLI op


def run_cli_workload(runner: Runner, args, ops, probe_list, entry: str, check,
                     rows=lambda op, out: op.rows) -> Result:
    """Shared pass loop of profile-grid and verify-suite.

    `ops` are valid invocations, each run by `child.py cli` in a fresh
    process; `check(op, stdout, seed)` gates the first output of each, and
    every later output must repeat it byte for byte. `rows(op, stdout)`
    counts an output's table rows. Set-up samples come from the untraced
    operation processes themselves: each times its own import of the
    entry module. The error-contract probes run once per run, after the
    timed passes.
    """
    res = Result()
    runner.import_time(entry)  # refuses a package imported from elsewhere than ./src
    side_path = runner.tmp / "side-output"  # span summary, or import time and peak RSS
    failed_ops: set[int] = set()
    setup: list[float] = []
    peak_kib = 0
    untraced, traced = [], []
    start = time.perf_counter()
    index = 0
    while (time.perf_counter() - start < args.seconds or len(untraced) < MIN_PASSES
           or (args.trace and not traced)):
        is_traced = bool(args.trace) and index % 2 == 1
        record = {"wall": 0.0, "rows": 0, "lat": [], "bytes": 0, "summaries": []}
        for i, op in enumerate(ops):
            side_path.unlink(missing_ok=True)
            rc, out, err, dt = runner.run([sys.executable, CHILD, "cli", str(int(is_traced)),
                                           str(side_path), *op.argv])
            record["wall"] += dt
            record["lat"].append(dt)
            record["bytes"] += len(out)
            side = side_path.read_text() if side_path.exists() else None
            if side is None:
                rc = rc or -1  # the child died before reporting
            elif is_traced:
                record["summaries"].append(json.loads(side))
            else:
                import_s, kib = side.split()
                setup.append(float(import_s))
                peak_kib = max(peak_kib, int(kib))
            res.attempted += 1
            if rc != 0:
                res.failed += 1
                failed_ops.add(i)
                res.notes.append(f"exit {rc}: {' '.join(op.argv)}: "
                                 f"{err.decode(errors='replace')[-300:]}")
                continue
            record["rows"] += rows(op, out)
            if i not in res.outputs:
                res.outputs[i] = out
            elif out != res.outputs[i]:
                res.failed += 1
                failed_ops.add(i)
                res.notes.append(f"output differs from the first run: {' '.join(op.argv)}")
        (traced if is_traced else untraced).append(record)
        index += 1

    probes_failed = 0
    for probe in probe_list:
        rc, _, err, _ = runner.python("-m", "casimir_slab", *probe.argv)
        if not contract_ok(rc, err):
            probes_failed += 1
            res.notes.append(f"error contract: {probe.name} exit {rc}, "
                             f"{len(err.decode(errors='replace').splitlines())} stderr lines")
    for i, out in res.outputs.items():
        try:
            ok = check(ops[i], out, args.seed * 1000 + i)
        except (ValueError, KeyError, IndexError):  # malformed output
            ok = False
        if not ok:
            res.failed += 1
            failed_ops.add(i)
            res.notes.append(f"correctness gate failed: {' '.join(ops[i].argv)}")

    walls = [p["wall"] for p in untraced]
    # Each operation repeats once per pass: its latency is the median over
    # passes, and the percentiles run over the workload's operation mix.
    per_op = [median([p["lat"][i] for p in untraced]) for i in range(len(ops))]
    res.e2e = {
        "setup_s": median(setup),
        "wall_s": median(walls),
        "rows_per_s": median([p["rows"] / p["wall"] for p in untraced]),
        "calls_per_s": median([len(p["lat"]) / p["wall"] for p in untraced]),
        "call_p50_us": percentile(per_op, 50) * 1e6,
        "call_p99_us": percentile(per_op, 99) * 1e6,
        "peak_rss_mb": peak_kib / 1024.0,
    }
    res.layer["call_samples"] = len(ops) * len(untraced)
    res.layer["setup_samples"] = len(setup)
    res.layer["cli.output_bytes"] = median([p["bytes"] for p in untraced])
    res.layer["cli.contract_probes"] = len(probe_list)
    res.layer["cli.contract_failed"] = probes_failed
    # Per distinct operation, so the ratio does not depend on how many
    # passes fit into the run.
    res.layer["failed_ratio"] = (len(failed_ops) + probes_failed) / (len(ops) + len(probe_list))
    if args.trace:
        per_pass = [layer_metrics(sum_summaries(p["summaries"])) for p in traced]
        res.layer.update(median_metrics(per_pass))
        traced_wall = median([p["wall"] for p in traced])
        res.layer["trace.wall_s"] = traced_wall
        res.layer["trace.untraced_wall_s"] = median(walls)
        res.layer["trace.overhead_ratio"] = traced_wall / median(walls) - 1.0
        res.layer["trace.unattributed_s"] = traced_wall - res.layer["trace.self_sum_s"]
        res.layer.update(runner.import_times(entry))
    return res


def profile_grid(runner: Runner, args) -> Result:
    ops = profile_grid_ops(args.seed, args.scale)
    missing = runner.tmp / "missing-dir"
    res = run_cli_workload(runner, args, ops, probes(args.seed, str(missing)),
                           "casimir_slab.cli", check_table)
    if args.trace:
        recorded = digests.load()
        matched = 0
        for argv in digests.CANONICAL:
            rc, out, _, _ = runner.python("-m", "casimir_slab", *argv)
            matched += rc == 0 and recorded.get(digests.key(argv)) == digests.sha256(out)
        res.layer["cli.digest_match"] = matched
    return res


class VerifyOp:
    argv = list(digests.VERIFY)


def verify_suite(runner: Runner, args) -> Result:
    op = VerifyOp()
    headroom: list[float] = []

    def check(_op, out: bytes, _seed: int) -> bool:
        columns, rows = parse_table(out, "csv")
        if columns[:4] != ["check", "residual", "tolerance", "status"] or not rows:
            return False
        for row in rows:
            residual, tolerance = float(row[1]), float(row[2])
            if residual > 0.0:
                headroom.append(tolerance / residual)
        return all(row[3] == "pass" for row in rows)

    # rows_per_s counts check rows per second: the CSV has a units line and
    # a header line before them (parse_table enforces that framing).
    res = run_cli_workload(runner, args, [op], [], "casimir_slab.cli", check,
                           rows=lambda _op, out: out.count(b"\n") - 2)
    res.notes.append("verify-suite inputs are fixed inside the package; --seed has no effect")
    res.layer["verify.min_headroom"] = min(headroom) if headroom else 0.0
    if args.trace:
        res.layer["cli.digest_match"] = float(digests.load().get(digests.key(op.argv))
                                              == digests.sha256(res.outputs.get(0, b"")))
    return res


def _scalar_worker(runner: Runner, args, seconds: float, trace: bool, first_pass: int) -> dict:
    cfg = {"seed": args.seed, "seconds": seconds, "trace": trace, "min_passes": 1,
           "first_pass": first_pass,
           "calls": max(SCALAR_CHECKS_PER_PASS, int(SCALAR_CALLS_PER_PASS * args.scale)),
           "checks": SCALAR_CHECKS_PER_PASS}
    cfg_path, out_path = runner.tmp / "scalar-in.json", runner.tmp / "scalar-out.json"
    cfg_path.write_text(json.dumps(cfg))
    rc, _, err, _ = runner.python(CHILD, "scalar", str(cfg_path), str(out_path))
    if rc != 0:
        raise BenchError(f"scalar worker failed: {err.decode(errors='replace')[-500:]}")
    return json.loads(out_path.read_text())


def scalar_calls(runner: Runner, args) -> Result:
    """Workers of SCALAR_SEGMENT_S each, set-up samples between them.

    With --trace 1 every other worker is traced.
    """
    res = Result()
    setup: list[float] = []
    plain, traced = [], []  # worker results
    segment = min(SCALAR_SEGMENT_S, args.seconds)
    start = time.perf_counter()
    n_passes = 0
    while (time.perf_counter() - start < args.seconds
           or sum(len(r["passes"]) for r in plain) < MIN_PASSES or (args.trace and not traced)):
        setup += [runner.import_time("casimir_slab") for _ in range(SCALAR_SETUP_PER_GAP)]
        is_traced = bool(args.trace) and len(plain) > len(traced)
        run = _scalar_worker(runner, args, segment, is_traced, n_passes)
        n_passes += len(run["passes"])
        (traced if is_traced else plain).append(run)
    setup += [runner.import_time("casimir_slab") for _ in range(SCALAR_SETUP_PER_GAP)]
    for run in plain + traced:
        for p in run["passes"]:
            res.attempted += p["calls"]
            res.failed += p["errors"]
        for spec, got in run["checks"]:
            if not check_scalar(spec, got):
                res.failed += 1
                res.notes.append(f"correctness gate failed: {spec} -> {got}")
    passes = [p for run in plain for p in run["passes"]]
    res.e2e = {
        "setup_s": median(setup),
        "wall_s": median([p["wall_s"] for p in passes]),
        "rows_per_s": median([p["calls"] / p["wall_s"] for p in passes]),
        "calls_per_s": median([p["calls"] / p["wall_s"] for p in passes]),
        "call_p50_us": median([p["p50_us"] for p in passes]),
        "call_p99_us": median([p["p99_us"] for p in passes]),
        "peak_rss_mb": max(run["peak_kib"] for run in plain) / 1024.0,
    }
    res.layer["call_samples"] = passes[0]["calls"]
    res.layer["setup_samples"] = len(setup)
    res.layer["failed_ratio"] = res.failed / max(res.attempted, 1)
    if args.trace:
        per_pass = [layer_metrics(s) for run in traced for s in run["summaries"]]
        res.layer.update(median_metrics(per_pass))
        traced_wall = median([p["wall_s"] for run in traced for p in run["passes"]])
        res.layer["trace.wall_s"] = traced_wall
        res.layer["trace.untraced_wall_s"] = res.e2e["wall_s"]
        res.layer["trace.overhead_ratio"] = traced_wall / res.e2e["wall_s"] - 1.0
        res.layer["trace.child_s"] = traced_wall
        res.layer["trace.unattributed_s"] = traced_wall - res.layer["trace.self_sum_s"]
        res.layer.update(runner.import_times("casimir_slab"))
    return res


WORKLOADS = {
    "profile-grid": profile_grid,
    "verify-suite": verify_suite,
    "scalar-calls": scalar_calls,
}


# ------------------------------------------------------------------ main

def host_loop_ms() -> float:
    """Median time of a fixed pure-Python loop, run when the workload ends.

    A shared host's speed can drift by tens of percent over minutes; the
    figure lets two runs' timings be read against the speed the host had.
    """
    times = []
    for _ in range(9):
        start = time.perf_counter()
        acc = 0.0
        for i in range(100000):
            acc += (i + 0.5) ** -3.0
        times.append(time.perf_counter() - start)
    return median(times) * 1e3


def environment() -> dict[str, object]:
    """Where the numbers came from; the git SHA only if the checkout has .git."""
    sha = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        sha = head.read_text().strip()
        ref_file = ROOT / ".git" / sha.removeprefix("ref: ")
        if sha.startswith("ref: ") and ref_file.is_file():
            sha = ref_file.read_text().strip()
    return {"git_sha": sha, "python": platform.python_version(),
            "numpy": reference.np.__version__, "nproc": os.cpu_count(),
            "load1": round(os.getloadavg()[0], 2), "host_loop_ms": round(host_loop_ms(), 2)}


def report(args, res: Result, metrics: dict[str, dict]) -> None:
    err = sys.stderr
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"env {json.dumps(environment())}", file=err)
    print(f"attempted {res.attempted}  failed {res.failed}", file=err)
    shown = dict(metrics)
    if not args.trace:  # the counts behind the ratios and percentiles
        for k in ("failed_ratio", "call_samples", "setup_samples", "cli.contract_probes",
                  "cli.contract_failed"):
            if k in res.layer:
                shown[k] = {"value": res.layer[k], "unit": PER_LAYER_UNITS[k]}
    for name, m in shown.items():
        print(f"  {name:34s} {m['value']:>16.6g}  {m['unit']}", file=err)
    for note in res.notes[:20]:
        print(f"note: {note}", file=err)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="work per pass relative to the defined workload (self-test only)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "casimir_slab" / "__init__.py").is_file():
        print(f"error: no casimir_slab source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        res = WORKLOADS[args.workload](Runner(tmp), args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass

    if args.trace:
        metrics = {k: {"value": float(res.layer.get(k, 0.0)), "unit": u}
                   for k, u in PER_LAYER_UNITS.items()}
    else:
        metrics = {k: {"value": float(res.e2e[k]), "unit": UNITS[k]} for k in END_TO_END}
    report(args, res, metrics)
    correct = res.failed == 0 and res.attempted > 0
    print(json.dumps({"correct": correct, "attempted": res.attempted, "failed": res.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
