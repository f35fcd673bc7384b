"""Worker processes started by run.py; not meant to be run by hand.

    child.py cli TRACE SIDE_PATH ARGV...
        Run `casimir_slab.cli.main(ARGV)`; output and exit code are the
        CLI's. TRACE 0: write "IMPORT_S PEAK_KIB" to SIDE_PATH, the time
        this fresh interpreter took to import casimir_slab.cli and its peak
        resident set. TRACE 1: trace every layer and write the span
        summary (JSON) to SIDE_PATH instead.

    child.py scalar IN_JSON OUT_JSON
        Run scalar-calls passes in this process (no CLI, no numpy) until the
        time in IN_JSON is used up, recording per-call latencies, results of
        the calls chosen for checking and, when tracing, a span summary per
        pass.

Only `sys` and `time` are imported before the timed import, so IMPORT_S
is what any fresh interpreter pays for `import casimir_slab.cli`.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # start of the process, for trace.child_s

import sys  # noqa: E402


def _peak_kib() -> int:
    # A child's rusage cannot be used for this: it includes the memory of
    # the parent at the time of the spawn.
    with open("/proc/self/status") as status:
        return int(next(line.split()[1] for line in status if line.startswith("VmHWM:")))


def _cli(trace: bool, side_path: str, argv: list[str]) -> int:
    if not trace:
        start = time.perf_counter()
        from casimir_slab import cli

        import_s = time.perf_counter() - start
        try:
            return cli.main(argv)
        finally:
            with open(side_path, "w") as out:
                out.write(f"{import_s!r} {_peak_kib()}")

    import importlib
    import json

    from tracer import LAYERS, Tracer

    tracer = Tracer()
    with tracer.span("cli.import"):
        from casimir_slab import cli
    for layer in LAYERS:  # layers cli would import lazily must be wrapped too
        importlib.import_module(f"casimir_slab.{layer}")
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        summary = tracer.summary()
        summary["trace.child_s"] = time.perf_counter() - _T0
        with open(side_path, "w") as out:
            json.dump(summary, out)


def _build_calls(specs: list[tuple]) -> list[tuple]:
    from casimir_slab import core, specfun
    from casimir_slab.core import EmBC, ScalarBC, Spacetime, Theory, TheoryKind

    calls = []
    for spec in specs:
        name = spec[0]
        if name == "hurwitz_zeta":
            calls.append((specfun.hurwitz_zeta, spec[1:], {}))
        elif name == "riemann_zeta":
            calls.append((specfun.riemann_zeta, spec[1:], {}))
        else:
            st = Spacetime(spec[1], spec[2])
            fn = getattr(core, name)
            if name in ("em_stress", "em_fluctuations"):
                calls.append((fn, (st, EmBC(spec[3]), spec[4]), {}))
            elif name == "scalar_stress":
                calls.append((fn, (st, ScalarBC(spec[3]), spec[4]), {"improved": spec[5]}))
            elif name == "pressure":
                kind = TheoryKind(spec[3])
                bc = EmBC(spec[4]) if kind is TheoryKind.MAXWELL else ScalarBC(spec[4])
                calls.append((fn, (st, Theory(kind, bc)), {}))
            else:  # f_profile
                calls.append((fn, (st, spec[3]), {}))
    return calls


def _as_dict(result) -> dict[str, float]:
    import dataclasses

    if isinstance(result, float):
        return {"value": result}
    return {k: float(v) for k, v in dataclasses.asdict(result).items()}


def _scalar(in_path: str, out_path: str) -> int:
    import json
    import random
    import statistics
    from array import array

    from tracer import Tracer
    from workloads import scalar_call_specs

    with open(in_path) as cfg_file:
        cfg = json.load(cfg_file)
    tracer = Tracer() if cfg["trace"] else None
    if tracer is not None:
        import casimir_slab  # noqa: F401  (load the layers before wrapping them)

        tracer.install()
    n_calls = cfg["calls"]
    latency_ns = array("q", bytes(8 * n_calls))
    clock = time.perf_counter_ns
    passes, checks, summaries = [], [], []
    start = time.perf_counter()
    index = cfg["first_pass"]  # pass indices continue across workers: no input repeats
    while (index < cfg["first_pass"] + cfg["min_passes"]
           or time.perf_counter() - start < cfg["seconds"]):
        specs = scalar_call_specs(cfg["seed"], index, n_calls)
        calls = _build_calls(specs)
        picker = random.Random(f"check:{cfg['seed']}:{index}")
        chosen = set(picker.sample(range(n_calls), cfg["checks"]))
        kept = {}
        errors = 0
        if tracer is not None:
            tracer.reset()
        t_pass = clock()
        for i, (fn, args, kwargs) in enumerate(calls):
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:  # counted as a failed operation, never fatal
                errors += 1
                result = None
            latency_ns[i] = clock() - t0
            if i in chosen:
                kept[i] = result
        wall = (clock() - t_pass) * 1e-9
        cuts = statistics.quantiles(latency_ns, n=100, method="inclusive")
        passes.append({"wall_s": wall, "p50_us": cuts[49] * 1e-3, "p99_us": cuts[98] * 1e-3,
                       "calls": n_calls, "errors": errors})
        for i, result in sorted(kept.items()):
            checks.append([list(specs[i]), None if result is None else _as_dict(result)])
        if tracer is not None:
            summaries.append(tracer.summary())
        index += 1
    with open(out_path, "w") as out:
        json.dump({"passes": passes, "checks": checks, "summaries": summaries,
                   "peak_kib": _peak_kib()}, out)
    return 0


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    if mode == "cli":
        sys.exit(_cli(rest[0] == "1", rest[1], rest[2:]))
    sys.exit(_scalar(rest[0], rest[1]))
