"""In-memory span tracing of casimir_slab's layers, from outside the package.

`Tracer.install` replaces every public function of the already imported
layer modules with a wrapper that records a span: name, parent span,
start, end and the call's arguments. `cli` reaches `core.*`, and `core`
reaches `specfun.*`, through module attributes, so nested calls are seen
too. Spans stay in memory; `summary` reduces them to counters at the end
of a run. Stdlib only, so tracing a run never adds a numpy import.
"""

from __future__ import annotations

import sys
import time
import types
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("specfun", "core", "oracle", "verify", "cli")
# specfun kernels whose argument reuse is counted (distinct args / calls)
DISTINCT_ARGS = ("specfun.riemann_zeta", "specfun.gamma")


def public_functions(module) -> list[str]:
    return sorted(
        name
        for name, value in vars(module).items()
        if not name.startswith("_")
        and isinstance(value, types.FunctionType)
        and value.__module__ == module.__name__
    )


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index, start ns, end ns, args]
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()

    def _open(self, name: str, args: tuple) -> list:
        rec = [name, self._stack[-1] if self._stack else -1, time.perf_counter_ns(), 0, args]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[3] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name, ())
        try:
            yield
        finally:
            self._close(rec)

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            rec = self._open(name, args)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer module imported so far."""
        for layer in LAYERS:
            module = sys.modules.get(f"casimir_slab.{layer}")
            if module is None:
                continue
            for attr in public_functions(module):
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(f"{layer}.{attr}", original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def summary(self) -> dict[str, float]:
        """Counters of one run: calls and self time per function and layer.

        Self time is a span's duration minus its child spans. "Top-level"
        core calls are those not made from inside core; they carry the
        point count and the (D, L) repeat count.
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, parent, start, end, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        distinct: dict[str, set] = defaultdict(set)
        seen_dl: set = set()
        for i, (name, parent, start, end, args) in enumerate(spans):
            self_s = (end - start - child_ns[i]) * 1e-9
            layer = name.split(".", 1)[0]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_s
            out[f"{layer}.self_s"] += self_s
            out["trace.self_sum_s"] += self_s
            if name in DISTINCT_ARGS and args:
                distinct[name].add(args[0])
            if name == "verify.run_checks":
                out["verify.run_checks_s"] += (end - start) * 1e-9
            if layer == "core" and (parent < 0 or not spans[parent][0].startswith("core.")):
                grid = args[2] if name == "core.subtracted_profile" and len(args) > 2 else None
                out["core.points"] += len(grid) if hasattr(grid, "__len__") else 1
                out["core.top_s"] += (end - start) * 1e-9
                st = args[0] if args else None
                if hasattr(st, "dim_D") and hasattr(st, "plate_gap_L"):
                    key = (st.dim_D, st.plate_gap_L)
                    out["core.dl_calls"] += 1
                    out["core.dl_repeats"] += key in seen_dl
                    seen_dl.add(key)
        for name, values in distinct.items():
            out[f"{name}.distinct"] = len(values)
        out["trace.spans"] = len(spans)
        return dict(out)
