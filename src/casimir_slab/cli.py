"""Command-line front end: reproducible tables in CSV or JSON.

Commands
--------
pressure      total pressure and energy per hyperarea for one setup
profile       stress-tensor components on a z grid (optionally the
              everywhere-finite subtracted profile with exterior rows)
fluctuations  squared field-strength fluctuations on a z grid
sweep         global quantities across a range of dimensions
verify        run the oracle consistency suite; exit 1 on any failure

Exit codes: 0 success, 1 verification failure, 2 usage error. Identical
configurations produce byte-identical output. All numbers are printed
with 12 significant digits; lengths enter every result only through
exact powers, so rescaling --length never changes the digits in an
unpredictable way.
"""

from __future__ import annotations

import argparse
import re
import sys
from functools import partial
from itertools import chain, groupby, islice
from operator import eq, neg
from typing import Callable, Iterable, Iterator, Sequence, TextIO

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

# (cell separator, row opening, row closing, row separator, empty row)
_LAYOUT = {
    "csv": (",", "", "\n", "", "\n"),
    "json": (",\n      ", "    [\n      ", "\n    ]", ",\n", "    []"),
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
    if isinstance(value, float):
        return f"{value:.11e}" if fmt == "csv" else repr(_round12(value))
    if fmt == "csv":
        return str(value)
    import json  # here and in _write_table only, so that writing CSV never loads it
    return json.dumps(value)


def _float_lines(column: tuple, fmt: str) -> str:
    # The cells of a float column, one per line, formatted in one C-level pass.
    if fmt == "csv":
        return "\n".join(["%.11e"] * len(column)) % column
    return re.sub(_JSON_RELAYOUT, _relayout, "\n".join(["%.12g"] * len(column)) % column)


def _column_texts(rows: list[tuple], fmt: str) -> list[list[str]]:
    """The cell texts of rows of equal length, one list per column."""
    texts = []
    negatable = []  # earlier float columns without a zero, with their lines
    for column in zip(*rows):
        kinds = set(map(type, column))
        kind = kinds.pop()
        if kinds:  # mixed types
            texts.append([_cell(v, fmt) for v in column])
        elif not issubclass(kind, float):
            memo = {v: _cell(v, fmt) for v in set(column)}
            texts.append(list(map(memo.__getitem__, column)))
        elif column.count(column[0]) == len(column) and column[0] != 0.0:
            # 0.0 == -0.0, so a zero column is not known to be constant
            texts.append([_cell(column[0], fmt)] * len(column))
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


def _rows_text(rows: list[tuple], fmt: str) -> str:
    cell_sep, row_open, row_close, row_sep, empty_row = _LAYOUT[fmt]
    parts = []
    for width, group in groupby(rows, len):
        group = list(group)
        if width == 0:
            parts.append(row_sep.join([empty_row] * len(group)))
        else:
            lines = map(cell_sep.join, zip(*_column_texts(group, fmt)))
            parts.append(row_open + (row_close + row_sep + row_open).join(lines) + row_close)
    return row_sep.join(parts)


def _write_table(
    out: TextIO, config: dict[str, object], columns: list[str], texts: list[str], fmt: str
) -> None:
    """Write a table as CSV, or as json.dumps({config, columns, rows}, indent=2) + "\n".

    texts are the rows as _rows_text renders them, one string per
    non-empty block. Floats print with 12 significant digits:
    f"{v:.11e}" in CSV, and in JSON the repr of that rounded value. The
    rows are not handed to json.dumps because with indent it uses its
    pure-Python encoder, which costs more than evaluating a large grid.
    """
    if fmt == "json":
        import json
        head = json.dumps({"config": config, "columns": columns}, indent=2)
        out.write(head[:-2] + ',\n  "rows": ' + ("[\n" if texts else "[]"))
        tail = ("\n  ]" if texts else "") + "\n}\n"
    else:
        out.write(f"# units: {config['units']}\n" + ",".join(columns) + "\n")
        tail = ""
    row_sep = _LAYOUT[fmt][3]
    for i, text in enumerate(texts):
        out.write((row_sep if i else "") + text)
    out.write(tail)


def _render(
    config: dict[str, object],
    columns: list[str],
    blocks: Iterable[list[tuple]],
    fmt: str,
    output: str | None,
) -> None:
    # Every block is evaluated and turned into text before the first byte is
    # written, so an error leaves stdout empty and creates no file.
    texts = [_rows_text(rows, fmt) for rows in blocks]
    if output is None:
        _write_table(sys.stdout, config, columns, texts, fmt)
        return
    try:
        with open(output, "w", newline="") as handle:
            _write_table(handle, config, columns, texts, fmt)
    except OSError as exc:
        raise UsageError(f"--output: {exc}") from exc


_THEORY_KINDS = {k.value: k for k in TheoryKind}
_SCALAR_BCS = {b.value: b for b in ScalarBC}
_EM_BCS = {b.value: b for b in EmBC}


def _build_theory(kind_name: str, bc_name: str | None) -> Theory:
    kind = _THEORY_KINDS[kind_name]
    if kind is TheoryKind.MAXWELL:
        if bc_name is None:
            bc_name = EmBC.METALLIC.value
        if bc_name not in _EM_BCS:
            raise UsageError(f"--bc: {bc_name!r} is not valid for Maxwell theory")
        return Theory(kind, _EM_BCS[bc_name])
    if bc_name is None:
        bc_name = ScalarBC.DIRICHLET.value
    if bc_name not in _SCALAR_BCS:
        raise UsageError(f"--bc: {bc_name!r} is not valid for a scalar theory")
    return Theory(kind, _SCALAR_BCS[bc_name])


def _spacetime(dim: int, length: float) -> Spacetime:
    try:
        return Spacetime(dim, length)
    except ValueError as exc:
        field = "--dim" if "dim_D" in str(exc) else "--length"
        raise UsageError(f"{field}: {exc}") from exc


def _base_config(args: argparse.Namespace, th: Theory | None = None) -> dict[str, object]:
    cfg: dict[str, object] = {
        "command": args.command,
        "dim": args.dim,
        "length": _round12(args.length),
        "units": UNITS,
    }
    if th is not None:
        cfg["theory"] = th.kind.value
        cfg["bc"] = th.bc.value
    return cfg


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
    _render(_base_config(args, th), columns, [rows], args.format, args.output)
    return 0


def _interior_grid(length: float, samples: int) -> Iterator[float]:
    return (length * (i + 0.5) / samples for i in range(samples))


def _blocks(
    grid: Iterable[float], rows: Callable[[list[float]], list[tuple]]
) -> Iterator[list[tuple]]:
    # rows(zs) for consecutive runs zs of at most _BLOCK_ROWS grid points.
    grid = iter(grid)
    while zs := list(islice(grid, _BLOCK_ROWS)):
        yield rows(zs)


def _profile_blocks(args: argparse.Namespace, st: Spacetime, th: Theory) -> Iterator[list[tuple]]:
    length = st.plate_gap_L
    samples = args.samples
    if args.subtracted:
        if th.kind is not TheoryKind.MAXWELL:
            raise UsageError("--subtracted: only defined for --theory maxwell")
        # Left exterior, interior, right exterior, each ascending: the order the
        # kernel would sort the whole grid into. (Only a length whose amplitude
        # the kernel rejects can round an interior point above L.)
        grid = chain(
            (-length * (i + 0.5) / samples for i in reversed(range(samples))),
            _interior_grid(length, samples),
            (length + length * (i + 0.5) / samples for i in range(samples)),
        )
        return _blocks(
            grid,
            lambda zs: [(*row[:-1], row[-1].value) for row in core.subtracted_rows(st, th.bc, zs)],
        )
    if any(z == 0.0 or z == length for z in _interior_grid(length, samples)):
        raise UsageError("--samples: grid point falls on a plate; densities diverge there")
    if th.kind is TheoryKind.MAXWELL:
        kernel = partial(core.em_stress_rows, st, th.bc)
    else:
        improved = th.kind is TheoryKind.SCALAR_IMPROVED
        kernel = partial(core.scalar_stress_rows, st, th.bc, improved=improved)
    interior = Region.INTERIOR.value
    return _blocks(
        _interior_grid(length, samples),
        lambda zs: [(z, *tensor, interior) for z, tensor in zip(zs, kernel(zs))],
    )


def _cmd_profile(args: argparse.Namespace) -> int:
    if args.samples < 2:
        raise UsageError(f"--samples: must be >= 2, got {args.samples}")
    st = _spacetime(args.dim, args.length)
    th = _build_theory(args.theory, args.bc)
    blocks = _profile_blocks(args, st, th)
    config = _base_config(args, th)
    config["samples"] = args.samples
    config["subtracted"] = bool(args.subtracted)
    columns = ["z", "t00", "tzz", "t_transverse", "trace", "region"]
    _render(config, columns, blocks, args.format, args.output)
    return 0


def _cmd_fluctuations(args: argparse.Namespace) -> int:
    if args.samples < 2:
        raise UsageError(f"--samples: must be >= 2, got {args.samples}")
    st = _spacetime(args.dim, args.length)
    if st.dim_D < 3:
        raise UsageError("--dim: fluctuations need D >= 3 (no transverse direction at D=2)")
    bc = _EM_BCS[args.bc or EmBC.METALLIC.value]
    blocks = _blocks(
        _interior_grid(st.plate_gap_L, args.samples),
        lambda zs: [(z, *record) for z, record in zip(zs, core.em_fluctuations_rows(st, bc, zs))],
    )
    config = _base_config(args)
    config["theory"] = TheoryKind.MAXWELL.value
    config["bc"] = bc.value
    config["samples"] = args.samples
    columns = ["z", "Ez2", "Ei2", "Biz2", "Bij2"]
    _render(config, columns, blocks, args.format, args.output)
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
    _render(config, columns, [rows], args.format, args.output)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    # Imported here so the other commands never load numpy and the oracles.
    from . import verify

    results = verify.run_checks(quick=args.quick)
    rows = [(r.name, r.residual, r.tolerance, "pass" if r.passed else "FAIL") for r in results]
    config: dict[str, object] = {
        "command": args.command,
        "quick": bool(args.quick),
        "units": UNITS,
    }
    columns = ["check", "residual", "tolerance", "status"]
    _render(config, columns, [rows], args.format, args.output)
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
        "--quick", action="store_true", help="100x smaller budgets, 100x looser tolerances"
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (UsageError, DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
