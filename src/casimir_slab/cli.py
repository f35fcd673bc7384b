"""Command-line front end: reproducible tables in CSV or JSON.

Commands
--------
pressure      total pressure and energy per hyperarea for one setup
profile       stress-tensor components on a z grid (optionally the
              everywhere-finite subtracted profile with exterior rows)
fluctuations  squared field-strength fluctuations on a z grid
sweep         global quantities across a range of dimensions
verify        run the oracle consistency suite; exit 1 on any failure

Exit codes: 0 success, 1 verification failure, 2 usage or write error (one
stderr line, argparse's errors included). Identical configurations produce
byte-identical output. All numbers are printed with 12 significant digits;
lengths enter every result only through exact powers, so rescaling
--length never changes the digits in an unpredictable way.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from bisect import bisect_left
from contextlib import contextmanager
from functools import partial
from itertools import chain, islice
from operator import add, eq, neg
from typing import Callable, Iterable, Iterator, NoReturn, Sequence, TextIO

from . import core
from .core import EmBC, Region, ScalarBC, Spacetime, Theory, TheoryKind
from .errors import DomainError

UNITS = "hbar = c = 1; densities/pressures scale as 1/L^D, energies per hyperarea as 1/L^(D-1)"


class UsageError(Exception):
    """Invalid run configuration; message names the offending field."""


def _round12(value: float) -> float:
    return float(f"{value:.11e}")


# Grids are evaluated, and their rows turned into text column by column,
# this many points at a time, so no command holds a large table's rows whole.
_BLOCK_ROWS = 1024

# (cell separator, row opening, row closing, row separator)
_LAYOUT = {
    "csv": (",", "", "\n", ""),
    "json": (",\n      ", "    [\n      ", "\n    ]", ",\n"),
}

# "%.12g" has the digits of repr(float(f"{v:.11e}")), and its layout too
# except on lines it writes without a point or exponent (integral values,
# where repr adds ".0"), with an exponent of 12 to 15 (repr writes those
# positionally) or with an exponent of -300 and below (subnormals, where
# repr may need fewer digits). Compiled on first use, by re's cache, so
# that importing the CLI does not pay for it.
_JSON_RELAYOUT = r"(?m)^-?\d+$|^-?\d(?:\.\d+)?e(?:\+1[2-5]|-3\d\d)$"


def _relayout(match: re.Match) -> str:
    return repr(float(match.group()))


def _cell(value: object, fmt: str) -> str:
    # A cell that is not a float.
    if fmt == "csv":
        return str(value)
    import json  # here and in _write_table only, so that writing CSV never loads it
    return json.dumps(value)


def _float_lines(column: tuple, fmt: str) -> str:
    # The cells of a float column, one per line, formatted in one C-level pass.
    if fmt == "csv":
        return "\n".join(["%.11e"] * len(column)) % column
    text = "\n".join(["%.12g"] * len(column)) % column
    # Each line the pattern matches lacks a point or holds "e+1" or "e-3".
    if text.count(".") != len(column) or "e+1" in text or "e-3" in text:
        return re.sub(_JSON_RELAYOUT, _relayout, text)
    return text


def _column_texts(columns: Iterable[Sequence], fmt: str) -> list[list[str]]:
    """The cell texts of columns of equal length, each a tuple of floats or holding no float."""
    texts = []
    negatable = []  # earlier float columns without a zero, with their lines
    for column in columns:
        if not isinstance(column[0], float):
            memo = {v: _cell(v, fmt) for v in set(column)}
            texts.append(list(map(memo.__getitem__, column)))
        elif column.count(column[0]) == len(column) and column[0] != 0.0:
            # 0.0 == -0.0, so a zero column is not known to be constant
            texts.append([_float_lines(column[:1], fmt)] * len(column))
        else:
            for other, other_lines in negatable:
                if column[0] == -other[0] and all(map(eq, column, map(neg, other))):
                    # Formatting is odd in the sign, and neither column has a zero.
                    lines = ("-" + other_lines.replace("\n", "\n-")).replace("--", "")
                    break
            else:
                lines = _float_lines(column, fmt)
                if 0.0 not in column:
                    negatable.append((column, lines))
            texts.append(lines.split("\n"))
    return texts


def _write_table(
    out: TextIO, config: dict[str, object], columns: list[str], spills: Iterable[TextIO], fmt: str
) -> None:
    """Write a table as CSV, or as json.dumps({config, columns, rows}, indent=2) + "\n".

    spills hold the rows' text as _write_range writes it, split across them
    at block boundaries and each read from its current position in 64 KiB
    pieces. Floats print with 12 significant digits: f"{v:.11e}" in CSV, and
    in JSON the repr of that rounded value; any other cell prints as str in
    CSV and as json.dumps in JSON. The rows are not handed to json.dumps
    because with indent it uses its pure-Python encoder, which costs more
    than evaluating a large grid.
    """
    texts = chain.from_iterable(iter(partial(spill.read, 1 << 16), "") for spill in spills)
    first = next(texts, "")  # empty only if there are no rows
    if fmt == "json":
        import json
        head = json.dumps({"config": config, "columns": columns}, indent=2)
        out.write(head[:-2] + ',\n  "rows": ' + ("[\n" if first else "[]"))
        tail = ("\n  ]" if first else "") + "\n}\n"
    else:
        out.write(f"# units: {config['units']}\n" + ",".join(columns) + "\n")
        tail = ""
    out.write(first)
    out.writelines(texts)
    out.write(tail)


def _write_range(
    out: TextIO, grid: Callable[[], Iterator], evaluate: Callable, first: int, last: int, fmt: str
) -> None:
    # Write the text of the blocks first..last-1 of the table of evaluate over
    # grid() to out, each block a run of at most _BLOCK_ROWS points as soon as
    # it is made, and each but block 0 after a row separator.
    cell_sep, row_open, row_close, row_sep = _LAYOUT[fmt]
    points = islice(grid(), first * _BLOCK_ROWS, last * _BLOCK_ROWS)
    sep = row_sep * (first > 0)
    while zs := tuple(islice(points, _BLOCK_ROWS)):
        lines = map(cell_sep.join, zip(*_column_texts(evaluate(zs), fmt)))
        out.write(sep + row_open + (row_close + row_sep + row_open).join(lines) + row_close)
        sep = row_sep


def _rows_table(rows: list[tuple]) -> tuple:
    # A table of rows already evaluated, as _render takes it.
    return rows.__iter__, len(rows), lambda block: zip(*block)


def _processes(blocks: int) -> int:
    # One per CPU and at most one per block. A fork copies no thread, so with
    # other threads alive it could copy a lock one of them holds.
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or threading and threading.active_count() > 1:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(blocks, cpus))


def _fork(work: Callable[[TextIO, Callable], None], spill: TextIO) -> int:
    # The pid of a worker that runs work(spill, guard) and exits with 0 once
    # all its text is in spill. guard(step) is step, except that the worker
    # stops before each call of it once this process is gone, as no one would
    # read its text.
    parent = os.getpid()
    pid = os.fork()
    if pid == 0:  # the worker; it leaves only here
        code = 1
        try:
            def guard(step: Callable) -> Callable:
                def guarded(*args: object) -> object:
                    if os.getppid() != parent:
                        os._exit(1)
                    return step(*args)

                return guarded

            work(spill, guard)
            spill.flush()  # os._exit drops what a buffer still holds
            code = 0
        finally:
            os._exit(code)
    return pid


def _unguarded(step: Callable) -> Callable:
    return step


@contextmanager
def _spilled(
    works: Sequence[Callable[[TextIO, Callable], None]], read: Callable[[TextIO], object]
) -> Iterator[list]:
    """Run each work(spill, guard) into its own unlinked temporary file and
    yield read(spill) of each, in order, with the spill read from its start.

    The first work runs in this process and each other one in a forked
    worker, which reports only through its exit status. A work whose worker
    could not be forked, exits other than with 0 or leaves a file that read
    rejects with ValueError runs here again, which raises what one process
    raises. The files stay open, and a worker not yet reaped is killed, until
    the with block ends. A temporary file that cannot be made or filled
    raises UsageError.
    """
    import tempfile  # here, as json and signal are, so that importing the CLI never loads it

    spills: list[TextIO] = []
    workers: dict[int, int] = {}  # work index -> pid of its worker, until reaped
    try:
        try:
            for _ in works:
                spills.append(tempfile.TemporaryFile("w+", encoding="utf-8", newline=""))
            for i in range(1, len(works)):
                try:
                    workers[i] = _fork(works[i], spills[i])
                except OSError:
                    break
            works[0](spills[0], _unguarded)
            values = []
            for i, (work, spill) in enumerate(zip(works, spills)):
                failed = i > 0 and (i not in workers or os.waitpid(workers[i], 0)[1] != 0)
                workers.pop(i, None)
                spill.seek(0)  # which flushes what this process wrote
                if not failed:
                    try:
                        values.append(read(spill))
                        continue
                    except ValueError:
                        spill.seek(0)
                # What the worker wrote is a prefix of this text.
                work(spill, _unguarded)
                spill.seek(0)
                values.append(read(spill))
        except OSError as exc:
            raise UsageError(f"temporary file: {exc}") from exc
        yield values
    finally:
        for spill in spills:
            try:
                spill.close()
            except OSError:
                pass  # its flush failed again, on text that is being dropped
        if workers:
            import signal
            for pid in workers.values():
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _to_stdout(write: Callable[[TextIO], None]) -> None:
    # write(sys.stdout), then flush it, so that a failed write raises
    # UsageError here rather than failing the interpreter's flush at exit.
    try:
        write(sys.stdout)
        sys.stdout.flush()
    except OSError as exc:
        # The interpreter flushes stdout again at exit, which would fail
        # again and print a traceback; let that flush go nowhere.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise UsageError(f"stdout: {exc}") from exc


def _render(
    config: dict[str, object], columns: list[str], table: tuple, fmt: str, output: str | None
) -> None:
    """Evaluate table = (grid start, point count, columns of a tuple of points)
    and write it to stdout or to the file output.

    The columns of a tuple of points are an iterable of at least one column,
    each with one cell per point: a tuple of floats, or a sequence that holds
    no float.

    The blocks are cut into one contiguous range per process, each evaluated
    by _spilled into its own temporary file: the first in this process, each
    other in a forked worker. Each block's text goes into the file as soon as
    the block is made, so no process holds more than one block; the whole
    table's text sits in the temporary directory until it is copied out.
    Nothing is written before every range is evaluated, so an error leaves
    stdout empty and creates no file. A write to stdout that fails raises
    UsageError.
    """
    grid, points, evaluate = table
    blocks = -(-points // _BLOCK_ROWS)
    n = _processes(blocks)
    cuts = [blocks * i // n for i in range(n + 1)]

    def write_range(first: int, last: int, spill: TextIO, guard: Callable) -> None:
        _write_range(spill, grid, guard(evaluate), first, last, fmt)

    works = [partial(write_range, cuts[i], cuts[i + 1]) for i in range(n)]
    with _spilled(works, lambda spill: spill) as spills:
        if output is None:
            _to_stdout(lambda out: _write_table(out, config, columns, spills, fmt))
            return
        try:
            with open(output, "w", newline="") as handle:
                _write_table(handle, config, columns, spills, fmt)
        except OSError as exc:
            raise UsageError(f"--output: {exc}") from exc


_THEORY_KINDS = {k.value: k for k in TheoryKind}
_SCALAR_BCS = {b.value: b for b in ScalarBC}
_EM_BCS = {b.value: b for b in EmBC}


def _build_theory(kind_name: str, bc_name: str | None) -> Theory:
    kind = _THEORY_KINDS[kind_name]
    if kind is TheoryKind.MAXWELL:
        bcs, default, name = _EM_BCS, EmBC.METALLIC, "Maxwell theory"
    else:
        bcs, default, name = _SCALAR_BCS, ScalarBC.DIRICHLET, "a scalar theory"
    if bc_name is None:
        bc_name = default.value
    if bc_name not in bcs:
        raise UsageError(f"--bc: {bc_name!r} is not valid for {name}")
    return Theory(kind, bcs[bc_name])


def _spacetime(dim: int, length: float) -> Spacetime:
    try:
        return Spacetime(dim, length)
    except ValueError as exc:
        field = "--dim" if "dim_D" in str(exc) else "--length"
        raise UsageError(f"{field}: {exc}") from exc


def _base_config(args: argparse.Namespace, th: Theory) -> dict[str, object]:
    return {
        "command": args.command,
        "dim": args.dim,
        "length": _round12(args.length),
        "units": UNITS,
        "theory": th.kind.value,
        "bc": th.bc.value,
    }


def _cmd_pressure(args: argparse.Namespace) -> int:
    st = _spacetime(args.dim, args.length)
    th = _build_theory(args.theory, args.bc)
    if th.kind is TheoryKind.MAXWELL and st.dim_D == 2:
        print(
            "warning: Maxwell theory at D=2 has no propagating degrees of freedom",
            file=sys.stderr,
        )
    p = core.pressure(st, th)
    energy = core.total_energy_per_area(st, th)
    columns = ["dim", "length", "theory", "bc", "pressure", "energy_per_area"]
    rows = [(st.dim_D, st.plate_gap_L, th.kind.value, th.bc.value, p, energy)]
    _render(_base_config(args, th), columns, _rows_table(rows), args.format, args.output)
    return 0


def _midpoint_grid(samples: int, exterior: bool = False) -> Callable[[float], tuple]:
    """The grid of samples midpoints between plates L apart, and if exterior
    their mirror images beyond each plate: the grid of every grid command.

    Checks --samples >= 2 now. Returns the function of the checked L that
    gives (grid start, point count), or raises UsageError if a point rounds
    onto a plate, so that this check comes after every other setup check.
    """
    if samples < 2:
        raise UsageError(f"--samples: must be >= 2, got {samples}")

    def place(length: float) -> tuple[Callable[[], Iterator[float]], int]:
        midpoint = lambda i: length * (i + 0.5) / samples  # noqa: E731
        # The midpoints ascend, so they can meet a plate only at the first one
        # or at the first one not below L, and the exterior points -z and
        # L + z only at the first midpoint.
        top = bisect_left(range(samples), length, key=midpoint)
        low = midpoint(0) == 0.0 or exterior and length + midpoint(0) == length
        if low or top < samples and midpoint(top) == length:
            raise UsageError("--samples: grid point falls on a plate; densities diverge there")
        if not exterior:
            return partial(map, midpoint, range(samples)), samples
        # Left exterior, interior, right exterior, each ascending: the order the
        # kernel would sort the whole grid into. (Only a length whose amplitude
        # the kernel rejects can round an interior point above L.)
        grid = lambda: chain(  # noqa: E731
            map(neg, map(midpoint, reversed(range(samples)))),
            map(midpoint, range(samples)),
            map(partial(add, length), map(midpoint, range(samples))),
        )
        return grid, 3 * samples

    return place


def _cmd_profile(args: argparse.Namespace) -> int:
    place = _midpoint_grid(args.samples, args.subtracted)
    st = _spacetime(args.dim, args.length)
    th = _build_theory(args.theory, args.bc)
    if args.subtracted and th.kind is not TheoryKind.MAXWELL:
        raise UsageError("--subtracted: only defined for --theory maxwell")
    grid, points = place(st.plate_gap_L)
    if args.subtracted:
        def columns(zs: tuple) -> list[Sequence]:
            *values, regions = zip(*core.subtracted_rows(st, th.bc, zs))
            return [*values, [region.value for region in regions]]
    else:
        if th.kind is TheoryKind.MAXWELL:
            kernel = partial(core.em_stress_rows, st, th.bc)
        else:
            improved = th.kind is TheoryKind.SCALAR_IMPROVED
            kernel = partial(core.scalar_stress_rows, st, th.bc, improved=improved)
        interior = [Region.INTERIOR.value]
        columns = lambda zs: [zs, *zip(*kernel(zs)), interior * len(zs)]  # noqa: E731
    config = _base_config(args, th)
    config["samples"] = args.samples
    config["subtracted"] = bool(args.subtracted)
    names = ["z", "t00", "tzz", "t_transverse", "trace", "region"]
    _render(config, names, (grid, points, columns), args.format, args.output)
    return 0


def _cmd_fluctuations(args: argparse.Namespace) -> int:
    place = _midpoint_grid(args.samples)
    st = _spacetime(args.dim, args.length)
    if st.dim_D < 3:
        raise UsageError("--dim: fluctuations need D >= 3 (no transverse direction at D=2)")
    th = _build_theory(TheoryKind.MAXWELL.value, args.bc)
    grid, points = place(st.plate_gap_L)
    table = (grid, points, lambda zs: [zs, *zip(*core.em_fluctuations_rows(st, th.bc, zs))])
    config = _base_config(args, th)
    config["samples"] = args.samples
    columns = ["z", "Ez2", "Ei2", "Biz2", "Bij2"]
    _render(config, columns, table, args.format, args.output)
    return 0


def _parse_dims(text: str) -> range:
    try:
        lo_text, hi_text = text.split(":", 1)
        lo, hi = int(lo_text), int(hi_text)
    except ValueError as exc:
        raise UsageError(f"--dims: expected LO:HI, got {text!r}") from exc
    if lo > hi:
        raise UsageError(f"--dims: empty range {text!r}")
    if lo < 2 or hi > 24:
        raise UsageError(f"--dims: range must stay within 2:24, got {text!r}")
    return range(lo, hi + 1)


def _cmd_sweep(args: argparse.Namespace) -> int:
    dims = _parse_dims(args.dims)
    rows = []
    for dim in dims:
        st = _spacetime(dim, args.length)
        e0 = core.base_energy_density(st)
        p_scalar = core.pressure(st, Theory(TheoryKind.SCALAR_CANONICAL, ScalarBC.DIRICHLET))
        p_maxwell = core.pressure(st, Theory(TheoryKind.MAXWELL, EmBC.METALLIC))
        rows.append((dim, e0, p_scalar, p_maxwell))
    config: dict[str, object] = {
        "command": args.command,
        "dims": args.dims,
        "length": _round12(args.length),
        "units": UNITS,
    }
    columns = ["dim", "base_energy_density", "pressure_scalar", "pressure_maxwell"]
    _render(config, columns, _rows_table(rows), args.format, args.output)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    processes = _processes(2)
    if processes == 2:
        # numpy's OpenBLAS would start a thread per CPU at its first matrix
        # product (the cutoff check's), and those threads would compete with
        # the other process for the CPUs. Its thread count is read when numpy
        # is loaded, so this holds only if nothing loaded numpy before; a
        # value the user set is kept. OpenBLAS reads OMP_NUM_THREADS if
        # OPENBLAS_NUM_THREADS is unset, and other BLAS builds read it too.
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
        os.environ.setdefault("OMP_NUM_THREADS", "1")
    # Imported here so the other commands never load numpy and the oracles.
    from . import verify

    if processes == 1:
        results = verify.run_checks(quick=args.quick)
    else:
        # This process runs the head of the suite, and so raises first what
        # one process would raise first; one worker runs the rest.
        checks = verify.checks(args.quick)
        works = [
            partial(verify._write_checks, checks[: verify.HEAD]),
            partial(verify._write_checks, checks[verify.HEAD :]),
        ]
        with _spilled(works, verify._read_checks) as (head, tail):
            results = head + tail
    rows = [(r.name, r.residual, r.tolerance, "pass" if r.passed else "FAIL") for r in results]
    config: dict[str, object] = {
        "command": args.command,
        "quick": bool(args.quick),
        "units": UNITS,
    }
    columns = ["check", "residual", "tolerance", "status"]
    _render(config, columns, _rows_table(rows), args.format, args.output)
    failures = [r for r in results if not r.passed]
    if failures:
        worst = max(failures, key=lambda r: r.residual / r.tolerance)
        print(
            f"verification failed: worst residual {worst.residual:.3e} "
            f"(tolerance {worst.tolerance:.3e}) in check {worst.name}",
            file=sys.stderr,
        )
        return 1
    return 0


class _Parser(argparse.ArgumentParser):
    # Sub-parsers are made of the parser's own class, so every argparse error
    # is a one-line UsageError instead of a usage text and a SystemExit.
    def error(self, message: str) -> NoReturn:
        raise UsageError(message)

    # -h writes the usage as a table is written, so that a failed write is
    # one UsageError line too.
    def print_help(self, file: TextIO | None = None) -> None:
        if file is None:
            _to_stdout(super().print_help)
        else:
            super().print_help(file)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="casimir-slab",
        description="Vacuum energies, pressures and stress profiles between parallel hyperplanes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--format", choices=("csv", "json"), default="csv")
    out.add_argument("--output", default=None, metavar="PATH", help="write to file instead of stdout")

    def add_setup(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dim", type=int, default=4, help="spacetime dimension D (2..24)")
        p.add_argument("--length", type=float, default=1.0, help="plate separation L")
        p.add_argument(
            "--theory",
            choices=sorted(_THEORY_KINDS),
            default=TheoryKind.MAXWELL.value,
        )
        p.add_argument(
            "--bc",
            choices=sorted(_SCALAR_BCS) + sorted(_EM_BCS),
            default=None,
            help="boundary condition (default: metallic for maxwell, dirichlet for scalars)",
        )

    p_pressure = sub.add_parser(
        "pressure", parents=[out], help="pressure and total energy per hyperarea"
    )
    add_setup(p_pressure)

    p_profile = sub.add_parser("profile", parents=[out], help="stress tensor on a midpoint z grid")
    add_setup(p_profile)
    p_profile.add_argument("--samples", type=int, default=64)
    p_profile.add_argument(
        "--subtracted",
        action="store_true",
        help="emit the everywhere-finite subtracted profile, including exterior rows",
    )

    p_fluct = sub.add_parser(
        "fluctuations", parents=[out], help="squared field fluctuations on a z grid"
    )
    p_fluct.add_argument("--dim", type=int, default=4)
    p_fluct.add_argument("--length", type=float, default=1.0)
    p_fluct.add_argument("--bc", choices=sorted(_EM_BCS), default=None)
    p_fluct.add_argument("--samples", type=int, default=16)

    p_sweep = sub.add_parser("sweep", parents=[out], help="global quantities across dimensions")
    p_sweep.add_argument("--dims", default="2:12", help="inclusive dimension range LO:HI")
    p_sweep.add_argument("--length", type=float, default=1.0)

    p_verify = sub.add_parser("verify", parents=[out], help="run the oracle consistency suite")
    p_verify.add_argument(
        "--quick",
        action="store_true",
        help="10x fewer images and modes, 6x larger cutoffs, 4x fewer samples, "
        "100x looser tolerances",
    )

    return parser


_DISPATCH = {
    "pressure": _cmd_pressure,
    "profile": _cmd_profile,
    "fluctuations": _cmd_fluctuations,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
}


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _DISPATCH[args.command](args)
    except (UsageError, DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
