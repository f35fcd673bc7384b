"""CLI tests: exit codes, formats, determinism, schema conformance."""

import contextlib
import hashlib
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from importlib import resources
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_slab import cli, core
from casimir_slab.core import EmBC, ScalarBC, Spacetime
from casimir_slab.errors import DomainError

PI = math.pi

FLOAT_12SIG = re.compile(r"^-?\d\.\d{11}e[+-]\d{2,3}$")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


# ---------------------------------------------------------------- pressure


def test_pressure_classic_value(capsys):
    code, out, err = run_cli(
        capsys, "pressure", "--dim", "4", "--theory", "maxwell", "--bc", "metallic", "--length", "1"
    )
    assert code == 0
    header, rows = parse_csv(out)
    value = float(rows[0][header.index("pressure")])
    assert abs(value - (-PI**2 / 240)) <= 1e-10 * PI**2 / 240


def test_pressure_d2_maxwell_warns_and_returns_zero(capsys):
    code, out, err = run_cli(capsys, "pressure", "--dim", "2", "--theory", "maxwell")
    assert code == 0
    header, rows = parse_csv(out)
    assert float(rows[0][header.index("pressure")]) == 0.0
    assert "no propagating degrees of freedom" in err


def test_pressure_improved_equals_canonical(capsys):
    _, out_improved, _ = run_cli(
        capsys, "pressure", "--dim", "5", "--theory", "scalar-improved", "--bc", "dirichlet"
    )
    _, out_canonical, _ = run_cli(
        capsys, "pressure", "--dim", "5", "--theory", "scalar-canonical", "--bc", "dirichlet"
    )
    h1, r1 = parse_csv(out_improved)
    h2, r2 = parse_csv(out_canonical)
    assert r1[0][h1.index("pressure")] == r2[0][h2.index("pressure")]


def test_pressure_length_rescaling(capsys):
    _, out1, _ = run_cli(capsys, "pressure", "--dim", "4", "--length", "1")
    _, out2, _ = run_cli(capsys, "pressure", "--dim", "4", "--length", "2")
    h, r1 = parse_csv(out1)
    _, r2 = parse_csv(out2)
    p1 = float(r1[0][h.index("pressure")])
    p2 = float(r2[0][h.index("pressure")])
    assert abs(p2 - p1 / 16) <= 1e-12 * abs(p1)


# ----------------------------------------------------------------- profile


def test_profile_d4_maxwell_constant_rows(capsys):
    code, out, _ = run_cli(
        capsys, "profile", "--dim", "4", "--theory", "maxwell", "--bc", "metallic", "--samples", "4"
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert len(rows) == 4
    t00s = {row[header.index("t00")] for row in rows}
    assert len(t00s) == 1
    assert abs(float(t00s.pop()) - (-PI**2 / 720)) < 1e-12


def test_profile_midpoint_grid_placement(capsys):
    _, out, _ = run_cli(capsys, "profile", "--dim", "4", "--samples", "4")
    header, rows = parse_csv(out)
    zs = [float(r[header.index("z")]) for r in rows]
    assert zs == [0.125, 0.375, 0.625, 0.875]


def test_profile_scalar_canonical_middle_row(capsys):
    _, out, _ = run_cli(
        capsys,
        "profile", "--dim", "4", "--theory", "scalar-canonical", "--bc", "dirichlet", "--samples", "3",
    )
    header, rows = parse_csv(out)
    middle = float(rows[1][header.index("t00")])
    want = -(1 / (16 * PI**2)) * (PI**4 / 90 + PI**4 / 3)
    assert abs(middle - want) <= 1e-10 * abs(want)


def test_profile_subtracted_exterior_rows(capsys):
    code, out, _ = run_cli(
        capsys,
        "profile", "--dim", "6", "--theory", "maxwell", "--bc", "metallic", "--subtracted",
        "--samples", "4",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert len(rows) == 12
    regions = [row[header.index("region")] for row in rows]
    assert regions[:4] == ["left-exterior"] * 4
    assert regions[4:8] == ["interior"] * 4
    assert regions[8:] == ["right-exterior"] * 4
    for row in rows:
        if row[header.index("region")] != "interior":
            assert float(row[header.index("tzz")]) == 0.0


def test_profile_subtracted_requires_maxwell(capsys):
    code, _, err = run_cli(
        capsys, "profile", "--dim", "6", "--theory", "scalar-canonical", "--subtracted"
    )
    assert code == 2
    assert "--subtracted" in err


def test_profile_rejects_tiny_sample_count(capsys):
    code, _, err = run_cli(capsys, "profile", "--dim", "4", "--samples", "1")
    assert code == 2
    assert "--samples" in err


def _no_kernel_call(*args, **kwargs):
    raise AssertionError("a grid kernel ran")


def test_profile_rejects_a_grid_that_rounds_onto_a_plate(capsys, monkeypatch):
    # With 2**54 samples the last midpoint rounds to L, the first does not
    # vanish, and the whole grid is far too long to scan. With 2**52 + 1 at
    # L = 1 only the first right-exterior point, L + z_0, rounds to L.
    for name in _GRID_KERNELS:
        monkeypatch.setattr(core, name, _no_kernel_call)
    samples = 2**52 + 1
    z_0 = 0.5 / samples
    assert 0.0 < z_0 and 1.0 * (samples - 1 + 0.5) / samples < 1.0 and 1.0 + z_0 == 1.0
    cases = [
        (command, length, str(2**54))
        for command in (["profile"], ["profile", "--subtracted"], ["fluctuations"])
        for length in ("1", "0.37")
    ]
    cases.append((["profile", "--subtracted"], "1", str(samples)))
    for command, length, count in cases:
        code, out, err = run_cli(capsys, *command, "--length", length, "--samples", count)
        assert (code, out) == (2, ""), (command, length, count)
        assert err == "error: --samples: grid point falls on a plate; densities diverge there\n"


# ------------------------------------------------------------ fluctuations


def test_fluctuations_midpoint_display(capsys):
    code, out, _ = run_cli(capsys, "fluctuations", "--dim", "4", "--samples", "3")
    assert code == 0
    header, rows = parse_csv(out)
    mid = rows[1]
    assert float(mid[header.index("z")]) == 0.5
    assert abs(float(mid[header.index("Ez2")]) - PI**2 / 45) < 1e-11
    for row in rows:
        assert float(row[header.index("Biz2")]) == -float(row[header.index("Ez2")])


def test_fluctuations_bc_flip(capsys):
    _, out_met, _ = run_cli(capsys, "fluctuations", "--dim", "6", "--samples", "3", "--bc", "metallic")
    _, out_mit, _ = run_cli(capsys, "fluctuations", "--dim", "6", "--samples", "3", "--bc", "mit")
    h, rows_met = parse_csv(out_met)
    _, rows_mit = parse_csv(out_mit)
    e0 = -math.gamma(3.0) * (PI**6 / 945) / (4 * PI) ** 3
    base = -2 * 4 * e0
    for a, b in zip(rows_met, rows_mit):
        ez_sum = float(a[h.index("Ez2")]) + float(b[h.index("Ez2")])
        assert abs(ez_sum - base) <= 1e-9 * max(abs(float(a[h.index("Ez2")])), 1.0)


def test_fluctuations_d2_rejected(capsys):
    code, _, err = run_cli(capsys, "fluctuations", "--dim", "2")
    assert code == 2
    assert "--dim" in err


# ----------------------------------------------------------------- sweep


def test_sweep_rows_and_degeneracy(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--dims", "2:12")
    assert code == 0
    header, rows = parse_csv(out)
    assert [int(r[header.index("dim")]) for r in rows] == list(range(2, 13))
    for row in rows:
        dim = int(row[header.index("dim")])
        scalar = float(row[header.index("pressure_scalar")])
        maxwell = float(row[header.index("pressure_maxwell")])
        # both cells are independently rounded to 12 significant digits
        assert abs(maxwell - (dim - 2) * scalar) <= 1e-10 * max(abs(maxwell), 1e-12)
    d4 = rows[2]
    assert abs(float(d4[header.index("pressure_maxwell")]) - (-PI**2 / 240)) < 1e-12
    assert float(rows[0][header.index("pressure_maxwell")]) == 0.0


def test_sweep_range_validation(capsys):
    for dims in ("1:12", "2:30", "9:5", "abc"):
        code, _, err = run_cli(capsys, "sweep", "--dims", dims)
        assert code == 2
        assert "--dims" in err
    for length in ("-1", "nan"):
        code, _, err = run_cli(capsys, "sweep", "--length", length)
        assert code == 2
        assert err.startswith("error: --length: "), err


# ----------------------------------------------------------------- verify


def test_verify_quick_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--quick")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["check", "residual", "tolerance", "status"]
    assert rows and all(row[header.index("status")] == "pass" for row in rows)


def test_verify_full_budget_passes():
    # the 1e6-image and 4e4-mode budgets run only without --quick
    from casimir_slab import verify

    results = verify.run_checks()
    assert results and [r.name for r in results if not r.passed] == []


def test_green_points_are_the_seeded_draw():
    # The literal points of the green-mode check keep the bits of the seeded
    # draw they were taken from.
    import numpy as np

    from casimir_slab import verify

    rng = np.random.default_rng(20260808)
    pts = []
    while len(pts) < 20:
        k = float(rng.uniform(0.1, 10.0))
        z = float(rng.uniform(0.1, 0.9))
        zp = float(rng.uniform(0.1, 0.9))
        if abs(z - zp) >= 0.1:
            pts.append((k, z, zp))
    hexes = [tuple(map(float.hex, p)) for p in pts]
    assert [tuple(map(float.hex, p)) for p in verify._GREEN_POINTS] == hexes


def test_verify_json_structure(capsys):
    code, out, _ = run_cli(capsys, "verify", "--quick", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["command"] == "verify"
    assert doc["config"]["quick"] is True
    assert all(len(row) == len(doc["columns"]) for row in doc["rows"])


def test_verify_failure_exits_1_and_reports_worst(capsys, monkeypatch):
    from casimir_slab import verify as verify_mod

    def rigged(quick=False):
        return [
            lambda: [
                verify_mod.CheckResult("good-check", 1e-12, 1e-10),
                verify_mod.CheckResult("broken-check", 3.5e-2, 1e-10),
            ]
        ]

    monkeypatch.setattr(verify_mod, "checks", rigged)
    code, out, err = run_cli(capsys, "verify")
    assert code == 1
    assert "FAIL" in out
    assert "broken-check" in err
    assert "3.500e-02" in err


@pytest.mark.parametrize("broken", [0, 2], ids=["in-the-cli-process", "in-the-worker"])
def test_verify_failure_in_either_process_exits_1(capsys, monkeypatch, tmp_path, broken):
    # Three checks on two CPUs: the first verify.HEAD run in the CLI process,
    # the last in its worker; a failure in either share must exit 1.
    from casimir_slab import verify as verify_mod

    log = tmp_path / "calls"
    log.write_text("")

    def check(i):
        def run():
            with open(log, "a") as out:
                out.write(f"{os.getpid()} {i}\n")
            if i == broken:
                return [verify_mod.CheckResult("broken-check", 3.5e-2, 1e-10)]
            return [verify_mod.CheckResult(f"good-check-{i}", 1e-12, 1e-10)]

        return run

    monkeypatch.setattr(verify_mod, "checks", lambda quick=False: [check(i) for i in range(3)])
    _set_cpus(monkeypatch, 2)
    code, out, err = run_cli(capsys, "verify")
    assert code == 1
    assert out.count("FAIL") == 1 and ",3.50000000000e-02," in out
    assert "broken-check" in err
    assert "3.500e-02" in err
    ran_in = {int(i): int(pid) for pid, i in map(str.split, log.read_text().splitlines())}
    assert sorted(ran_in) == [0, 1, 2]
    assert (ran_in[broken] == os.getpid()) == (broken < verify_mod.HEAD)
    assert ran_in[2] != os.getpid()
    _assert_no_child_left()


# Runs verify --quick in a fresh interpreter, then a matrix product large
# enough for OpenBLAS to use every thread it has; prints the process's thread
# count and the two thread variables as the CLI left them.
_BLAS_PROBE = """
import contextlib, io, os
from casimir_slab import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["verify", "--quick"]) == 0
import numpy
a = numpy.ones((600, 600))
a @ a
print(len(os.listdir("/proc/self/task")), os.environ.get("OPENBLAS_NUM_THREADS"),
      os.environ.get("OMP_NUM_THREADS"))
"""

_TWO_CPUS = pytest.mark.skipif(
    not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2,
    reason="needs /proc/self/task and at least two usable CPUs",
)


def _blas_probe(**variables):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    proc = subprocess.run(
        [sys.executable, "-c", _BLAS_PROBE], capture_output=True, text=True, timeout=120,
        env={**env, "PYTHONPATH": src, **variables},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@_TWO_CPUS
def test_two_process_verify_leaves_numpy_one_blas_thread():
    # Unpinned, OpenBLAS would start a thread per CPU at the first product.
    assert _blas_probe() == ["1", "1", "1"]


@_TWO_CPUS
def test_verify_keeps_a_blas_thread_count_the_user_set():
    _, openblas, omp = _blas_probe(OPENBLAS_NUM_THREADS="3")
    assert (openblas, omp) == ("3", "1")


# ------------------------------------------------------- output contracts


def test_csv_format_contract(capsys):
    _, out, _ = run_cli(capsys, "profile", "--dim", "5", "--samples", "3")
    assert out.startswith("# units: hbar = c = 1")
    assert "\r" not in out
    assert out.endswith("\n")
    header, rows = parse_csv(out)
    assert header == ["z", "t00", "tzz", "t_transverse", "trace", "region"]
    for row in rows:
        for cell in row[:-1]:
            assert FLOAT_12SIG.match(cell), cell


def test_json_rounds_to_12_significant_digits(capsys):
    _, out, _ = run_cli(capsys, "pressure", "--dim", "4", "--format", "json")
    doc = json.loads(out)
    idx = doc["columns"].index("pressure")
    value = doc["rows"][0][idx]
    assert value == float(f"{-PI**2 / 240:.11e}")


def test_byte_identical_reruns(tmp_path):
    for args in (
        ["profile", "--dim", "6", "--theory", "maxwell", "--subtracted", "--samples", "16"],
        ["profile", "--dim", "7", "--theory", "maxwell", "--samples", "33", "--format", "json"],
    ):
        path_a = tmp_path / "a.out"
        path_b = tmp_path / "b.out"
        assert cli.main(args + ["--output", str(path_a)]) == 0
        assert cli.main(args + ["--output", str(path_b)]) == 0
        assert path_a.read_bytes() == path_b.read_bytes()


# sha256 of stdout, pinned when the digits were last known good. A
# change here means the printed numbers changed, not just their layout.
GOLDEN = [
    ("pressure --dim 11 --theory scalar-improved --bc neumann --length 0.37 --format json",
     "5236882c350ebe41261fea42695095a400fc0590f55a34d6c72ec1f4362150ea"),
    ("pressure --dim 24 --theory maxwell --bc metallic --length 7.5",
     "3a4075d83e1e1bb0e3817c882a1617f095c1e1f858f1483661e4cecb50ea3d15"),
    ("profile --dim 5 --theory scalar-canonical --bc neumann --length 2.5 --samples 16",
     "35086c3597aacc5beb31e79f1fef29b055cf7df0d96a6dc4640b36bb01f66fcd"),
    ("profile --dim 13 --theory scalar-improved --bc dirichlet --samples 8 --format json",
     "33bc3ee0092296b3fa2ba34ac2914a1fd606395d4a90d407a9a016e4e95bd48f"),
    ("profile --dim 7 --theory maxwell --bc mit --length 0.37 --samples 33 --format json",
     "5b7d6f159636e3c785281137edfc1a77b2800f62d319305f540f9bf6287ec33a"),
    ("profile --dim 20 --theory maxwell --bc metallic --subtracted --samples 12 --length 7.5",
     "e455425257c6584a1a34a4cef0c9fcb562ed4fc56ced61ed6f20daacd100372e"),
    ("fluctuations --dim 3 --bc metallic --length 1e-3 --samples 16 --format json",
     "891165c6d37844bf061033586ff5b445d0138ef99a271a8d63f08c04b9ecc612"),
    ("fluctuations --dim 18 --bc mit --samples 10",
     "278da793b0b73946ba2100c632c494ed8e991954d029d840666f6a455138c22d"),
    ("sweep --dims 2:24 --length 0.37",
     "9b3db8fa32ab0eee6d6a1a3fcdd6246d1250ed6559389b1a27c1cf59eeb6f390"),
    ("profile --dim 21 --theory maxwell --bc metallic --length 0.37 --samples 2000 --format json",
     "942f73289cca009b9a117bf0100098b810231feb57cdeaf6b713985c7ddc2052"),
    ("profile --dim 7 --theory scalar-canonical --bc neumann --length 7.5 --samples 2000",
     "3e32aace8b87e2a97835672fd01b1863f3a222e7a3d58cae926b89ebfb409736"),
    ("profile --dim 12 --theory maxwell --bc mit --subtracted --length 1e-3 --samples 2000",
     "5ee6c93a4e68eecfa9d0e684848f93de2b4041cc6173f578f8084f4b258f301a"),
    ("fluctuations --dim 17 --bc metallic --length 2.5 --samples 2000 --format json",
     "0e3cfabedd452d0fa20878fcca0539aaba3761ab0fc3ee191dead6cc37f7967c"),
    # Large grids; in the fluctuations one about a third of the cells lie
    # in 1e12..1e16, where JSON prints floats positionally.
    ("profile --dim 21 --theory maxwell --bc metallic --length 0.37 --samples 20000 --format json",
     "fd7d603ecde14efd973df078df6e1d836c261b9717cab365b94890a09fb99d86"),
    ("fluctuations --dim 16 --bc mit --length 0.24181776784246303 --samples 20000 --format json",
     "53c1f19d251bf19d54427e416d54e1cb9ec3f1be44f2b9d84207ceb3ceb089ca"),
    ("profile --dim 9 --theory scalar-canonical --bc dirichlet --length 2.5 --samples 20000",
     "7e685b96d419a0ebe5e0b609300eae8cf7f2eafe2a9f43d5eb0d5304cc2128f4"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[a for a, _ in GOLDEN])
def test_golden_output_bytes(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def test_json_output_is_strict_json(capsys):
    # json.dumps would print Infinity/NaN for a non-finite value; such
    # values must exit 2 instead, so every emitted document is strict JSON.
    for argv in (
        ["pressure", "--dim", "24", "--length", "1e-12", "--format", "json"],
        ["profile", "--dim", "24", "--length", "1e-11", "--samples", "8", "--format", "json"],
        ["profile", "--dim", "9", "--theory", "scalar-improved", "--format", "json"],
        ["profile", "--dim", "24", "--subtracted", "--length", "1e-12", "--format", "json"],
        ["fluctuations", "--dim", "24", "--length", "1e-11", "--samples", "8", "--format", "json"],
        ["sweep", "--dims", "2:24", "--length", "1e-12", "--format", "json"],
        ["verify", "--quick", "--format", "json"],
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        doc = json.loads(out, parse_constant=_reject_constant)
        assert all(len(row) == len(doc["columns"]) for row in doc["rows"])


# Floats where the layout of f"{v:.12g}" and of the repr of the rounded
# value part ways, or nearly do.
_LAYOUT_EDGES = [
    0.0, 1.0, 3.0, 123456789012.0, 2.0000000000001, 0.5, 1e-4, 9.99999999999995e-5,
    9.9999999999995e11, 9.99999999999949e11, 1e12, 1.5e12, 1e13, 1e14, 1e15, 9.99999999999995e15,
    1e16, 1.5e16, 1e17, 1e300, 1.7976931348623157e308, 1e-299, 9.99999999999e-301, 1e-300,
    2.2250738585072014e-308, 2.225073858507201e-308, 1e-310, 5e-324,
]
_EDGE_FLOATS = st.sampled_from(_LAYOUT_EDGES + [-v for v in _LAYOUT_EDGES])
_FLOATS = (
    st.floats(allow_nan=False, allow_infinity=False)
    | st.floats(min_value=1e-300, max_value=1e300)
    | _EDGE_FLOATS
)


def _table_text(config, columns, rows, fmt):
    # As the CLI renders a table: blocks of cli._BLOCK_ROWS rows, each turned
    # into text; the first half of the blocks written to one file, as the CLI
    # process writes its range, and the rest to another, as a worker does;
    # then both copied out by the writer.
    table = cli._rows_table(rows)
    blocks = -(-len(rows) // cli._BLOCK_ROWS)
    spills = [io.StringIO(), io.StringIO()]
    cli._write_range(spills[0], table, 0, blocks // 2, fmt)
    cli._write_range(spills[1], table, blocks // 2, blocks, fmt)
    for spill in spills:
        spill.seek(0)
    out = io.StringIO()
    cli._write_table(out, config, columns, spills, fmt)
    return out.getvalue()


def _json_reference(config, columns, rows):
    rounded = [[float(f"{v:.11e}") if isinstance(v, float) else v for v in row] for row in rows]
    return json.dumps({"config": config, "columns": columns, "rows": rounded}, indent=2) + "\n"


def _csv_reference(config, columns, rows):
    lines = [f"# units: {config['units']}", ",".join(columns)]
    lines += [",".join(f"{v:.11e}" if isinstance(v, float) else str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


@st.composite
def _column_tables(draw, min_rows=1, max_rows=12):
    """Rectangular rows built column by column, each column all floats or
    holding no float, so that each branch of the writer runs: constant
    columns, negated copies of earlier columns (exact, with zeros,
    normalised by + 0.0 or off by one cell), layout edges, and columns of
    integers and text."""
    n = draw(st.integers(min_value=min_rows, max_value=max_rows))
    cols = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        kind = draw(st.sampled_from(["constant", "negated", "floats", "cells", "text"]))
        if kind == "constant":
            cols.append([draw(_FLOATS | st.integers() | st.text())] * n)
        elif kind == "negated" and any(isinstance(c[0], float) for c in cols if c):
            base = draw(st.sampled_from([c for c in cols if c and isinstance(c[0], float)]))
            col = [-v + 0.0 if draw(st.booleans()) else -v for v in base]
            if draw(st.booleans()):
                i = draw(st.integers(min_value=0, max_value=n - 1))
                col[i] = draw(_FLOATS)
            cols.append(col)
        elif kind == "cells":
            cols.append(draw(st.lists(st.integers() | st.text(), min_size=n, max_size=n)))
        elif kind == "text":
            cols.append(draw(st.lists(st.sampled_from(["interior", "a,b", '"q"', ""]),
                                      min_size=n, max_size=n)))
        else:
            cols.append(draw(st.lists(_FLOATS, min_size=n, max_size=n)))
    return [tuple(row) for row in zip(*cols)]


@given(
    config=st.dictionaries(st.text(), st.integers() | st.text() | st.booleans(), max_size=4),
    columns=st.lists(st.text(), max_size=6),
    rows=_column_tables(min_rows=0, max_rows=8),
    block=st.sampled_from([1, 2, 3, 4096]),
)
@settings(max_examples=300)
def test_json_writer_matches_json_dumps(config, columns, rows, block):
    with mock.patch.object(cli, "_BLOCK_ROWS", block):
        assert _table_text(config, columns, rows, "json") == _json_reference(config, columns, rows)


@given(rows=_column_tables(), block=st.sampled_from([1, 2, 3, 4096]))
@settings(max_examples=400)
def test_column_writer_matches_the_per_cell_references(rows, block):
    config = {"units": "u", "command": "x"}
    columns = [f"c{i}" for i in range(len(rows[0]))]
    with mock.patch.object(cli, "_BLOCK_ROWS", block):
        assert _table_text(config, columns, rows, "json") == _json_reference(config, columns, rows)
        assert _table_text(config, columns, rows, "csv") == _csv_reference(config, columns, rows)


def test_column_writer_layout_edges():
    config = {"units": "u"}
    rows = [(v, -v, v, 7, "interior") for v in _LAYOUT_EDGES]
    rows += [(v, v, -v, 7, "interior") for v in _LAYOUT_EDGES]
    for fmt, reference in (("json", _json_reference), ("csv", _csv_reference)):
        for table in (rows, [(v,) for v in _LAYOUT_EDGES], [(-0.0,)] * 3, [(0.0, -0.0)] * 3, []):
            assert _table_text(config, ["a"], table, fmt) == reference(config, ["a"], table)


def test_layout_edges_in_an_ordinary_block():
    # The JSON relayout is skipped on a column with no line it could match;
    # each edge must still be found among 1023 ordinary values.
    config = {"units": "u"}
    ordinary = [0.1 + i / 3e3 for i in range(cli._BLOCK_ROWS)]
    for edge in _LAYOUT_EDGES + [-v for v in _LAYOUT_EDGES]:
        for at in (0, 517, cli._BLOCK_ROWS - 1):
            column = ordinary[:at] + [edge] + ordinary[at + 1:]
            rows = [(v, -v, 1e-3 * v, "interior") for v in column]
            for fmt, reference in (("json", _json_reference), ("csv", _csv_reference)):
                assert _table_text(config, ["a", "b", "c", "d"], rows, fmt) == reference(
                    config, ["a", "b", "c", "d"], rows
                ), (edge, at, fmt)


# ------------------------------------------------------------ grid blocks

_GRID_KERNELS = ("em_stress_rows", "scalar_stress_rows", "em_fluctuations_rows", "subtracted_rows")


def _spy_kernels(monkeypatch, log, fail_at=None, worker_fault=None):
    """Wrap core's grid kernels. Each call, in this process or a forked worker,
    appends "pid size" to the file log; a call on a grid that holds fail_at
    raises DomainError; in a worker, worker_fault(grid) runs first."""
    parent = os.getpid()
    for name in _GRID_KERNELS:
        def spy(space, bc, grid, *rest, _real=getattr(core, name), **kw):
            with open(log, "a") as out:
                out.write(f"{os.getpid()} {len(grid)}\n")
            if worker_fault is not None and os.getpid() != parent:
                worker_fault(grid)
            if fail_at in grid:
                raise DomainError("rigged failure")
            return _real(space, bc, grid, *rest, **kw)

        monkeypatch.setattr(core, name, spy)


def _kernel_calls(log):
    """[(pid, grid size)] of the calls a spy logged, then empty the log."""
    calls = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
    log.write_text("")
    return calls


def _set_cpus(monkeypatch, cpus):
    # The CLI runs one process per CPU it may use.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# (kind, dim, length, theory, bc): one case per grid kernel the CLI calls
_GRID_CASES = [
    ("profile", 7, 0.37, "maxwell", "mit"),
    ("profile", 5, 2.5, "scalar-canonical", "neumann"),
    ("subtracted", 10, 7.5, "maxwell", "metallic"),
    ("fluctuations", 16, 0.24181776784246303, "maxwell", "mit"),
]


def _grid_argv(kind, dim, length, theory, bc, samples):
    argv = ["fluctuations" if kind == "fluctuations" else "profile", "--dim", str(dim)]
    argv += ["--length", repr(length), "--bc", bc, "--samples", str(samples)]
    if kind != "fluctuations":
        argv += ["--theory", theory]
    return argv + (["--subtracted"] if kind == "subtracted" else [])


def _grid_points(kind, length, samples):
    """The CLI's grid, in the order it is evaluated."""
    grid = [length * (i + 0.5) / samples for i in range(samples)]
    if kind != "subtracted":
        return grid
    left = [-length * (i + 0.5) / samples for i in range(samples)]
    right = [length + length * (i + 0.5) / samples for i in range(samples)]
    return left[::-1] + grid + right


def _whole_grid_table(kind, dim, length, theory, bc, samples):
    """(config, columns, rows) from one kernel call on the whole grid."""
    space = Spacetime(dim, length)
    grid = [length * (i + 0.5) / samples for i in range(samples)]
    config = {"command": "profile", "dim": dim, "length": float(f"{length:.11e}"), "units": cli.UNITS}
    config.update(theory=theory, bc=bc, samples=samples)
    if kind == "fluctuations":
        config["command"] = "fluctuations"
        rows = [(z, *r) for z, r in zip(grid, core.em_fluctuations_rows(space, EmBC(bc), grid))]
        return config, ["z", "Ez2", "Ei2", "Biz2", "Bij2"], rows
    config["subtracted"] = kind == "subtracted"
    columns = ["z", "t00", "tzz", "t_transverse", "trace", "region"]
    if kind == "subtracted":
        rows = core.subtracted_rows(space, EmBC(bc), _grid_points(kind, length, samples))
        return config, columns, [(*row[:-1], row[-1].value) for row in rows]
    if theory == "maxwell":
        tensors = core.em_stress_rows(space, EmBC(bc), grid)
    else:
        tensors = core.scalar_stress_rows(space, ScalarBC(bc), grid)
    return config, columns, [(z, *t, "interior") for z, t in zip(grid, tensors)]


@pytest.mark.parametrize("case", _GRID_CASES, ids=[c[0] + "-" + c[3] for c in _GRID_CASES])
def test_grid_blocks_match_one_whole_grid_call(capsys, monkeypatch, tmp_path, case):
    # In one process and with up to 4 forked workers.
    block = cli._BLOCK_ROWS
    log = tmp_path / "calls"
    fds = _open_fds()
    for samples in (block - 1, block, block + 1, 3 * block + 1):
        config, columns, rows = _whole_grid_table(*case, samples)
        blocks = -(-len(rows) // block)
        for cpus in (1, 4):
            for fmt, reference in (("csv", _csv_reference), ("json", _json_reference)):
                with monkeypatch.context() as patch:
                    _spy_kernels(patch, log)
                    _set_cpus(patch, cpus)
                    code, out, err = run_cli(capsys, *_grid_argv(*case, samples), "--format", fmt)
                assert (code, err) == (0, "")
                assert out == reference(config, columns, rows), (samples, cpus, fmt)
                # every point once, in calls of at most one block each
                pids, sizes = zip(*_kernel_calls(log))
                assert max(sizes) <= block and sum(sizes) == len(rows)
                assert len(sizes) == blocks
                assert os.getpid() in pids and len(set(pids)) == min(cpus, blocks)
                _assert_no_child_left()
                assert _open_fds() == fds


@pytest.mark.parametrize("kind", ["profile", "subtracted", "fluctuations"])
def test_error_in_a_later_block_writes_nothing(capsys, monkeypatch, tmp_path, kind):
    # The second block raises; with 4 CPUs it is a worker's range, which this
    # process evaluates again to raise the same error.
    samples = cli._BLOCK_ROWS + 1
    argv = _grid_argv(kind, 6, 1.0, "maxwell", "metallic", samples)
    fail_at = _grid_points(kind, 1.0, samples)[cli._BLOCK_ROWS]
    path = tmp_path / "table.out"
    log = tmp_path / "calls"
    fds = _open_fds()
    for cpus in (1, 4):
        for extra in ([], ["--output", str(path)], ["--format", "json", "--output", str(path)]):
            with monkeypatch.context() as patch:
                _spy_kernels(patch, log, fail_at=fail_at)
                _set_cpus(patch, cpus)
                code, out, err = run_cli(capsys, *argv, *extra)
            calls = _kernel_calls(log)
            # this process stops at the failing block
            assert len([pid for pid, _ in calls if pid == os.getpid()]) == 2
            # with workers, one of them met the failing block first
            assert any(pid != os.getpid() for pid, _ in calls) == (cpus > 1)
            assert (code, out, err) == (2, "", "error: rigged failure\n")
            assert not path.exists()
            _assert_no_child_left()
            assert _open_fds() == fds


def _worker_exits(grid):
    os._exit(3)


def _worker_killed(grid):
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("fault", ["exit", "kill", "killed-while-writing", "fork-error", "error"])
def test_failed_workers_change_no_byte(capsys, monkeypatch, tmp_path, fault):
    # 3 workers on 3 * _BLOCK_ROWS + 1 points; each fault leaves the bytes of
    # a one-process run, or its error, and no child or descriptor behind.
    samples = 3 * cli._BLOCK_ROWS + 1
    argv = _grid_argv("profile", 9, 0.37, "maxwell", "mit", samples) + ["--format", "json"]
    log = tmp_path / "calls"
    path = tmp_path / "table.out"
    with monkeypatch.context() as patch:
        _set_cpus(patch, 1)
        assert cli.main(argv + ["--output", str(path)]) == 0
    expected = path.read_text()
    path.unlink()
    fds = _open_fds()
    parent = os.getpid()
    real_write_range = cli._write_range
    with monkeypatch.context() as patch:
        _set_cpus(patch, 4)
        fail_at = None
        worker_fault = {"exit": _worker_exits, "kill": _worker_killed}.get(fault)
        if fault == "error":
            fail_at = _grid_points("profile", 0.37, samples)[-1]
        elif fault == "fork-error":
            def no_fork():
                raise OSError("rigged fork failure")

            patch.setattr(os, "fork", no_fork)
        elif fault == "killed-while-writing":
            class DiesHalfway:
                # Half the first block's text reaches the worker's file,
                # flushed past every buffer, before the worker dies.
                def __init__(self, spill):
                    self.spill = spill

                def write(self, text):
                    self.spill.write(text[: len(text) // 2])
                    self.spill.flush()
                    os.kill(os.getpid(), signal.SIGKILL)

            def write_range(spill, *args):
                if os.getpid() != parent:
                    spill = DiesHalfway(spill)
                real_write_range(spill, *args)

            patch.setattr(cli, "_write_range", write_range)
        _spy_kernels(patch, log, fail_at=fail_at, worker_fault=worker_fault)
        code, out, err = run_cli(capsys, *argv)
        calls = _kernel_calls(log)
        code_file, out_file, err_file = run_cli(capsys, *argv, "--output", str(path))
    if fault == "error":
        assert (code, out, err) == (2, "", "error: rigged failure\n")
        assert (code_file, out_file, err_file) == (2, "", "error: rigged failure\n")
        assert not path.exists()
    else:
        assert (code, err) == (0, "") and out == expected
        assert (code_file, out_file, err_file) == (0, "", "") and path.read_text() == expected
    pids = {pid for pid, _ in calls}
    assert parent in pids and len(pids) == (1 if fault == "fork-error" else 4)
    _assert_no_child_left()
    assert _open_fds() == fds


def _process_gone(pid):
    # Gone, or a zombie that only waits for its new parent to reap it.
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


def _worker_calls_after_its_cli_process_is_killed(argv, log):
    """Run the CLI on argv in a forked process, kill it as soon as its worker
    has logged a call, and return the number of calls the worker logged."""
    cli_pid = os.fork()
    if cli_pid == 0:
        code = 1
        try:
            with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
                code = cli.main(argv)
        finally:
            os._exit(code)
    calls = []
    deadline = time.monotonic() + 30
    try:
        while {pid for pid, _ in calls} <= {cli_pid} and time.monotonic() < deadline:
            time.sleep(0.01)
            calls += _kernel_calls(log)
    finally:
        os.kill(cli_pid, signal.SIGKILL)
        os.waitpid(cli_pid, 0)
    (worker,) = {pid for pid, _ in calls} - {cli_pid}
    while not _process_gone(worker) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert _process_gone(worker)
    calls += _kernel_calls(log)
    _assert_no_child_left()
    return len([pid for pid, _ in calls if pid == worker])


def test_a_worker_stops_once_its_cli_process_is_killed(monkeypatch, tmp_path):
    # Each block sleeps; the CLI process, forked from this one, is killed as
    # soon as its worker has started on its 20 blocks. The worker must stop
    # within a couple of blocks, not compute its whole range into a file no
    # one will read.
    samples = 40 * cli._BLOCK_ROWS
    log = tmp_path / "calls"
    log.write_text("")
    argv = _grid_argv("profile", 7, 0.37, "maxwell", "mit", samples)
    _spy_kernels(monkeypatch, log, worker_fault=lambda grid: time.sleep(0.2))
    _set_cpus(monkeypatch, 2)
    assert 1 <= _worker_calls_after_its_cli_process_is_killed(argv, log) <= 3


@pytest.mark.parametrize("spill", ["missing-dir", "full-here", "full-in-worker"])
def test_a_temporary_file_that_fails_exits_2(capsys, monkeypatch, tmp_path, spill):
    # An unusable temporary directory, or a full file in this process or in a
    # worker, whose range this process then evaluates again into the same
    # full file: one error line, empty stdout, no output file.
    samples = cli._BLOCK_ROWS + 1
    grid_argv = _grid_argv("profile", 22, 1.0, "maxwell", "metallic", samples)
    path = tmp_path / "table.out"
    log = tmp_path / "calls"
    log.write_text("")
    fds = _open_fds()
    real_temporary_file = tempfile.TemporaryFile
    opened = []

    def temporary_file(*args, **kw):
        opened.append(None)
        if len(opened) == (2 if spill == "full-in-worker" else 1):
            return open("/dev/full", *args, **kw)
        return real_temporary_file(*args, **kw)

    with monkeypatch.context() as patch:
        if spill == "missing-dir":
            patch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
        else:
            patch.setattr(tempfile, "TemporaryFile", temporary_file)
        _spy_kernels(patch, log)
        _set_cpus(patch, 2)
        argvs = [grid_argv, ["pressure", "--dim", "22"]]
        for argv in argvs[: 1 if spill == "full-in-worker" else 2]:
            for extra in ([], ["--format", "json"], ["--output", str(path)]):
                opened.clear()
                code, out, err = run_cli(capsys, *argv, *extra)
                assert (code, out) == (2, ""), (argv, extra)
                assert err.startswith("error: temporary file: ") and err.count("\n") == 1, err
                assert not path.exists()
                _assert_no_child_left()
                assert _open_fds() == fds
    calls = _kernel_calls(log)
    if spill == "full-in-worker":
        # each time, the worker met the full file and this process both blocks
        assert len([pid for pid, _ in calls if pid == os.getpid()]) == 2 * 3
        assert len([pid for pid, _ in calls if pid != os.getpid()]) == 3


# ---------------------------------------------------------- verify worker


def _rig_verify(monkeypatch, log, fail=False, worker_fault=None):
    """Put cheap checks in place of the suite: verify.HEAD in the CLI process's
    share and three in its worker's, one of which fails. Each call, in this
    process or a forked worker, appends "pid index" to the file log; with fail
    the last check raises DomainError; in a worker, worker_fault() runs first."""
    from casimir_slab import verify as verify_mod

    result = verify_mod.CheckResult
    parent = os.getpid()
    shares = [
        [result("head-a", 1e-12, 1e-10)],
        [result("head-b", 0.1, 0.5), result("head-c", 0.0, 1e-300)],
        [result("tail-a", 2.0 / 3.0, 1.0)],
        [],
        [result("tail-b", 3.5e-2, 1e-10), result("tail-c", 5e-324, 1e-6)],
    ]

    def check(i):
        def run():
            with open(log, "a") as out:
                out.write(f"{os.getpid()} {i}\n")
            if worker_fault is not None and os.getpid() != parent:
                worker_fault()
            if fail and i == len(shares) - 1:
                raise DomainError("rigged failure")
            return shares[i]

        return run

    assert verify_mod.HEAD == 2
    monkeypatch.setattr(verify_mod, "checks", lambda quick=False: list(map(check, range(5))))


class _CutShort:
    # A spill that keeps only the start of each text written to it: half of
    # it, or all but its last line.
    def __init__(self, spill, at_a_line):
        self.spill = spill
        self.at_a_line = at_a_line

    def write(self, text):
        cut = text.rindex("\n", 0, -1) + 1 if self.at_a_line else len(text) // 2
        self.spill.write(text[:cut])


@pytest.mark.parametrize(
    "fault", ["exit", "kill", "fork-error", "truncated", "truncated-at-a-line", "error"]
)
def test_failed_verify_workers_change_no_byte(capsys, monkeypatch, tmp_path, fault):
    # With two CPUs the tail of the suite runs in a worker; each fault leaves
    # the bytes, exit code and stderr of a one-process run, or its error, and
    # no child or descriptor behind.
    log = tmp_path / "calls"
    log.write_text("")
    path = tmp_path / "table.out"
    argvs = (["verify"], ["verify", "--format", "json", "--output", str(path)])
    fail = fault == "error"
    expected = []
    with monkeypatch.context() as patch:
        _rig_verify(patch, log, fail=fail)
        _set_cpus(patch, 1)
        for argv in argvs:
            expected.append((*run_cli(capsys, *argv), path.exists() and path.read_text()))
            path.unlink(missing_ok=True)
    assert [call for call, _ in _kernel_calls(log)] == [os.getpid()] * 10
    if fail:
        assert expected == [(2, "", "error: rigged failure\n", False)] * 2
    else:
        assert [code for code, *_ in expected] == [1, 1] and "FAIL" in expected[0][1]
        assert expected[1][2].startswith("verification failed: worst residual 3.500e-02")
    fds = _open_fds()
    with monkeypatch.context() as patch:
        worker_fault = {
            "exit": lambda: os._exit(3),
            "kill": lambda: os.kill(os.getpid(), signal.SIGKILL),
        }.get(fault)
        _rig_verify(patch, log, fail=fail, worker_fault=worker_fault)
        _set_cpus(patch, 2)
        if fault == "fork-error":
            def no_fork():
                raise OSError("rigged fork failure")

            patch.setattr(os, "fork", no_fork)
        elif fault.startswith("truncated"):
            # The worker exits with 0, but its file holds only part of its text.
            real_fork = cli._fork

            def fork(work, spill):
                at_a_line = fault == "truncated-at-a-line"
                cut_short = lambda spill, guard: work(_CutShort(spill, at_a_line), guard)  # noqa: E731
                return real_fork(cut_short, spill)

            patch.setattr(cli, "_fork", fork)
        for argv, want in zip(argvs, expected):
            assert (*run_cli(capsys, *argv), path.exists() and path.read_text()) == want
            path.unlink(missing_ok=True)
            calls = _kernel_calls(log)
            # this process ran its share and then the worker's again
            here = [i for pid, i in calls if pid == os.getpid()]
            assert here == [0, 1, 2, 3, 4]
            assert any(pid != os.getpid() for pid, _ in calls) == (fault != "fork-error")
            _assert_no_child_left()
            assert _open_fds() == fds


def test_a_verify_worker_stops_once_its_cli_process_is_killed(monkeypatch, tmp_path):
    # As a grid worker stops before its next block: each of the worker's 20
    # checks sleeps, and it must stop within a couple of them once the CLI
    # process is killed.
    from casimir_slab import verify as verify_mod

    log = tmp_path / "calls"
    log.write_text("")

    def check():
        with open(log, "a") as out:
            out.write(f"{os.getpid()} 0\n")
        time.sleep(0.2)
        return []

    monkeypatch.setattr(verify_mod, "checks", lambda quick=False: [check] * (verify_mod.HEAD + 20))
    _set_cpus(monkeypatch, 2)
    assert 1 <= _worker_calls_after_its_cli_process_is_killed(["verify"], log) <= 3


def _cli_into(stdout, argv):
    # Runs the CLI in a subprocess with buffered stdout into a pipe whose read
    # end is closed, as `| head -c 10` leaves it, or into /dev/full, a full
    # disk; or, for any other stdout, into a pipe read to its end.
    if stdout == "closed-pipe":
        read, target = os.pipe()
        os.close(read)
    elif stdout == "full-device":
        target = os.open("/dev/full", os.O_WRONLY)
    else:
        target = subprocess.PIPE
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}  # buffered stdout
    try:
        return subprocess.run(
            [sys.executable, "-m", "casimir_slab", *argv],
            stdout=target, stderr=subprocess.PIPE, text=True, timeout=60,
            env={**env, "PYTHONPATH": src, "COLUMNS": "80"},
        )
    finally:
        if target != subprocess.PIPE:
            os.close(target)


@pytest.mark.parametrize("samples", ["64", "3000"])
@pytest.mark.parametrize("stdout", ["closed-pipe", "full-device"])
def test_a_failed_write_to_stdout_exits_2(stdout, samples):
    # One error line and no traceback, also not from the interpreter's own
    # flush at exit, both for a table that fills stdout's buffer and for one
    # that fits in it.
    proc = _cli_into(stdout, ["profile", "--samples", samples])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: stdout: [Errno ") and proc.stderr.count("\n") == 1, (
        proc.stderr
    )


@pytest.mark.parametrize("argv", [["--help"], ["profile", "-h"]], ids=["--help", "profile-h"])
@pytest.mark.parametrize("stdout", ["closed-pipe", "full-device", "pipe"])
def test_help_exits_0_or_with_one_error_line(monkeypatch, stdout, argv):
    # The usage is written and flushed as a table is: in full with exit 0, or
    # one error line and exit 2, never a traceback or argparse's exit 0 followed
    # by a failed flush at exit.
    proc = _cli_into(stdout, argv)
    if stdout == "pipe":
        monkeypatch.setenv("COLUMNS", "80")
        usage = io.StringIO()
        with contextlib.redirect_stdout(usage), pytest.raises(SystemExit) as exited:
            cli.main(argv)
        assert exited.value.code == 0
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == usage.getvalue() and proc.stdout.startswith("usage: casimir-slab")
    else:
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: stdout: [Errno ") and proc.stderr.count("\n") == 1, (
            proc.stderr
        )


# Prints the peak memory (kB on Linux) of a CLI process and its workers. The
# CLI process is forked from a fresh interpreter: on Linux a process started
# by exec inherits the peak of the one that started it, here pytest's.
_PEAK_PROBE = """
import os, resource, sys
from casimir_slab import cli
os.sched_getaffinity = lambda pid: set(range(int(sys.argv[1])))
argv = ["profile", "--dim", "22", "--format", "json", "--samples", sys.argv[2]]
pid = os.fork()
if pid == 0:
    os._exit(cli.main(argv + ["--output", os.devnull]))
assert os.waitpid(pid, 0)[1] == 0
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def test_a_large_grid_takes_no_more_memory_than_a_small_one():
    # A 2e5-row grid may take only about 4 MB more than a 64-row one, with a
    # worker and in one process; a process that kept the text of its range
    # would take about 0.14 kB more a row.
    src = os.path.dirname(os.path.dirname(cli.__file__))

    def peak_kb(cpus, samples):
        proc = subprocess.run(
            [sys.executable, "-c", _PEAK_PROBE, str(cpus), str(samples)],
            capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        return int(proc.stdout)

    small = peak_kb(1, 64)
    for cpus in (2, 1):
        assert peak_kb(cpus, 200_000) - small < 4 * 1024, cpus


def test_json_output_validates_against_shipped_schema(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    schema_text = (
        resources.files("casimir_slab").joinpath("schemas/output_schema.json").read_text()
    )
    schema = json.loads(schema_text)
    for argv in (
        ["pressure", "--dim", "4", "--format", "json"],
        ["profile", "--dim", "6", "--theory", "maxwell", "--subtracted", "--samples", "4", "--format", "json"],
        ["fluctuations", "--dim", "4", "--samples", "2", "--format", "json"],
        ["sweep", "--dims", "2:6", "--format", "json"],
        ["verify", "--quick", "--format", "json"],
    ):
        code = cli.main(argv)
        out = capsys.readouterr().out
        assert code == 0
        jsonschema.validate(json.loads(out), schema)


def test_usage_errors_exit_2(capsys):
    cases = [
        ["pressure", "--dim", "1"],
        ["pressure", "--dim", "25"],
        ["pressure", "--length", "-1"],
        ["pressure", "--theory", "maxwell", "--bc", "dirichlet"],
        ["pressure", "--theory", "scalar-canonical", "--bc", "metallic"],
        ["pressure", "--dim", "24", "--length", "1e300"],
        ["profile", "--dim", "22", "--length", "1e-15"],
        ["sweep", "--dims", "2:24", "--length", "1e13"],
        ["pressure", "--dim", "24", "--length", "1e-13"],
        ["profile", "--dim", "24", "--length", "1e-12", "--samples", "8"],
        ["fluctuations", "--dim", "24", "--length", "1e-12", "--samples", "8"],
        ["sweep", "--dims", "20:24", "--length", "1e-13", "--format", "json"],
        ["sweep", "--length", "-1"],
        # argparse's own errors
        ["profile", "--samples", "1e3"],
        ["profile", "--format", "xml"],
        ["pressure", "--dim", "four"],
        ["pressure", "--bogus"],
        [],
        ["pressure", "--output", "/nonexistent-casimir-dir/x.csv"],
    ]
    for argv in cases:
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    assert "--output" in err


_ARGV_TOKENS = st.sampled_from([
    "pressure", "profile", "fluctuations", "sweep", "--dim", "--dims", "--length", "--theory",
    "--bc", "--samples", "--subtracted", "--format", "--quick", "--bogus", "-", "--",
    "maxwell", "scalar-canonical", "scalar-improved", "metallic", "mit", "dirichlet", "neumann",
    "csv", "json", "xml", "2:6", "9:5", "four", "1e3", "0.37", "1e-12", "5e-324", "nan", "-1",
]) | st.integers(min_value=-3, max_value=3000).map(str)


@given(argv=st.lists(_ARGV_TOKENS, max_size=8))
@settings(max_examples=300, deadline=None)
def test_every_argv_exits_0_or_with_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2), (argv, err.getvalue())
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, argv
        assert out.getvalue() == ""


def test_cli_import_does_not_load_numpy():
    # verify (numpy, oracles) is imported only by the verify command.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    # specfun keeps its Bernoulli numbers as integer pairs, not fractions,
    # and json is loaded only to write JSON.
    probe = (
        "import sys, casimir_slab.cli; heavy = {'numpy', 'fractions', 'json'};"
        "print(sorted(heavy & set(sys.modules)));"
        "casimir_slab.cli.main(['profile', '--dim', '7', '--theory', 'scalar-canonical']);"
        "print(sorted(heavy & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "[]"  # after the import
    assert lines[-1] == "[]"  # after writing a CSV profile
    assert len(lines) > 60  # the profile was written


# Runs pressure, sweep and a 2-block profile, which forks a worker, and prints
# which start-up-heavy modules are loaded after the import and after the runs.
_STARTUP_PROBE = """
import os, sys
from casimir_slab import cli
heavy = {"dataclasses", "inspect", "casimir_slab.records"}
print(sorted(heavy & set(sys.modules)))
os.sched_getaffinity = lambda pid: {0, 1}
fork, forks = os.fork, []
os.fork = lambda: forks.append(fork()) or forks[-1]
for argv in (["pressure"], ["sweep"], ["profile", "--dim", "7", "--samples", "2048"]):
    for fmt in ("csv", "json"):
        assert cli.main(argv + ["--format", fmt, "--output", os.devnull]) == 0
print(sorted(heavy & set(sys.modules)), len(forks))
"""


def test_cli_never_loads_dataclasses_or_the_records():
    # In a fresh interpreter, as pytest itself loads dataclasses; -S so that
    # only what the package loads counts.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _STARTUP_PROBE],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[] 2"]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "casimir_slab", "pressure", "--dim", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "pressure" in proc.stdout.splitlines()[1]
