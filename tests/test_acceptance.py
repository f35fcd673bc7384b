"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line
per criterion. Every expected value is either an exact closed form or
pinned by an independent brute-force oracle inside this package.
"""

import json
import math
import time

import numpy as np
import pytest

from casimir_slab import cli, core, oracle, specfun
from casimir_slab.core import EmBC, ScalarBC, Spacetime, Theory, TheoryKind

PI = math.pi

MAXWELL_METALLIC = Theory(TheoryKind.MAXWELL, EmBC.METALLIC)

ALL_THEORIES = (
    Theory(TheoryKind.SCALAR_CANONICAL, ScalarBC.DIRICHLET),
    Theory(TheoryKind.SCALAR_CANONICAL, ScalarBC.NEUMANN),
    Theory(TheoryKind.SCALAR_IMPROVED, ScalarBC.DIRICHLET),
    Theory(TheoryKind.SCALAR_IMPROVED, ScalarBC.NEUMANN),
    Theory(TheoryKind.MAXWELL, EmBC.METALLIC),
    Theory(TheoryKind.MAXWELL, EmBC.MIT),
)


def rel_err(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


def report(number, title, detail):
    print(f"ACCEPTANCE {number:>2} PASS  {title}: {detail}")


def test_criterion_01_classic_casimir_pressure(capsys):
    st = Spacetime(4, 1.0)
    core.pressure(st, MAXWELL_METALLIC)  # warm
    t0 = time.perf_counter()
    got = core.pressure(st, MAXWELL_METALLIC)
    elapsed = time.perf_counter() - t0
    want = -PI**2 / 240
    assert rel_err(got, want) <= 1e-10
    assert elapsed < 0.010
    # and through the CLI surface
    assert cli.main(["pressure", "--dim", "4", "--theory", "maxwell"]) == 0
    out = capsys.readouterr().out
    header = out.splitlines()[1].split(",")
    row = out.splitlines()[2].split(",")
    assert rel_err(float(row[header.index("pressure")]), want) <= 1e-10
    with capsys.disabled():
        report(1, "classic pressure", f"rel err {rel_err(got, want):.2e}, {elapsed*1e3:.3f} ms")


def test_criterion_02_cutoff_validates_zeta_continuation(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    drift = 0.0
    for dim in (2, 3):
        st = Spacetime(dim, 1.0)
        want = core.total_energy_per_area(
            st, Theory(TheoryKind.SCALAR_CANONICAL, ScalarBC.DIRICHLET)
        )
        got = oracle.cutoff_casimir_energy(dim, 1.0, scale=1.0)
        worst = max(worst, rel_err(got, want))
        rescaled = oracle.cutoff_casimir_energy(dim, 1.0, scale=2.0)
        drift = max(drift, rel_err(rescaled, got))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-3
    assert drift <= 2e-3
    assert elapsed < 5.0
    with capsys.disabled():
        report(2, "cutoff extrapolation", f"worst {worst:.2e}, drift {drift:.2e}, {elapsed:.2f} s")


def test_criterion_03_green_function_equivalence(capsys):
    rng = np.random.default_rng(20260808)
    pts = []
    while len(pts) < 20:
        k = float(rng.uniform(0.1, 10.0))
        z = float(rng.uniform(0.1, 0.9))
        zp = float(rng.uniform(0.1, 0.9))
        if abs(z - zp) >= 0.1:
            pts.append((k, z, zp))
    b1 = oracle.SeriesBudget(max_modes=10**4)
    b2 = oracle.SeriesBudget(max_modes=2 * 10**4)
    t0 = time.perf_counter()
    errs1, errs2 = [], []
    for k, z, zp in pts:
        exact = oracle.green_closed(k, z, zp, 1.0)
        errs1.append(
            abs(oracle.green_mode_sum(k, z, zp, 1.0, ScalarBC.DIRICHLET, b1) - exact)
        )
        errs2.append(
            abs(oracle.green_mode_sum(k, z, zp, 1.0, ScalarBC.DIRICHLET, b2) - exact)
        )
    elapsed = time.perf_counter() - t0
    assert max(errs1) <= 1e-6
    rms1 = math.sqrt(sum(e * e for e in errs1) / len(errs1))
    rms2 = math.sqrt(sum(e * e for e in errs2) / len(errs2))
    ratio = rms1 / rms2
    assert 2.5 <= ratio <= 7.0
    assert elapsed < 2.0
    with capsys.disabled():
        report(3, "green equivalence", f"max err {max(errs1):.2e}, doubling ratio {ratio:.2f}")


def test_criterion_04_profile_function_dual_closed_forms(capsys):
    budget = oracle.SeriesBudget(max_images=10**6)
    t0 = time.perf_counter()
    worst = 0.0
    for dim in (4, 6, 8):
        st = Spacetime(dim, 1.0)
        for x in (0.1, 0.25, 0.5):
            hurwitz_form = core.f_profile(st, x)
            image = oracle.image_profile_sum(dim, x, budget)
            cot_form = (
                PI**dim / math.factorial(dim - 1) * specfun.cot_derivative(dim - 1, PI * x)
            )
            worst = max(
                worst,
                rel_err(hurwitz_form, image),
                rel_err(cot_form, image),
                rel_err(hurwitz_form, cot_form),
            )
    midpoint = rel_err(core.f_profile(Spacetime(4, 1.0), 0.5), PI**4 / 3)
    worst = max(worst, midpoint)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9
    assert elapsed < 10.0
    with capsys.disabled():
        report(4, "profile dual forms", f"worst pairwise {worst:.2e}, {elapsed:.2f} s")


def _tzz_profile(st, th, zs):
    if th.kind is TheoryKind.MAXWELL:
        return [core.em_stress(st, th.bc, z).tzz for z in zs]
    improved = th.kind is TheoryKind.SCALAR_IMPROVED
    return [core.scalar_stress(st, th.bc, z, improved=improved).tzz for z in zs]


def test_criterion_05_pressure_constancy_and_force_consistency(capsys):
    zs = [(i + 0.5) / 64 for i in range(64)]
    worst_spread = 0.0
    worst_force = 0.0
    for dim in range(2, 13):
        st = Spacetime(dim, 1.0)
        for th in ALL_THEORIES:
            if th.kind is TheoryKind.MAXWELL and dim < 3:
                continue  # Maxwell operations require a transverse direction
            tzzs = _tzz_profile(st, th, zs)
            lo, hi = min(tzzs), max(tzzs)
            worst_spread = max(worst_spread, (hi - lo) / max(abs(lo), abs(hi), 1e-300))
            h = 1e-6
            fd = -(
                core.total_energy_per_area(Spacetime(dim, 1.0 + h), th)
                - core.total_energy_per_area(Spacetime(dim, 1.0 - h), th)
            ) / (2 * h)
            p = core.pressure(st, th)
            worst_force = max(worst_force, abs(fd - p) / max(abs(p), 1e-30))
    assert worst_spread <= 1e-10
    assert worst_force <= 1e-7
    with capsys.disabled():
        report(5, "pressure constancy", f"spread {worst_spread:.1e}, force dev {worst_force:.2e}")


def test_criterion_06_conformal_cases_and_improved_tensor(capsys):
    zs = [(i + 0.5) / 32 for i in range(32)]
    # coefficient-level constancy: the sampled values are bitwise equal
    st4 = Spacetime(4, 1.0)
    assert len({core.em_stress(st4, EmBC.METALLIC, z).t00 for z in zs}) == 1
    assert len({core.em_stress(st4, EmBC.MIT, z).t00 for z in zs}) == 1
    st2 = Spacetime(2, 1.0)
    for bc in (ScalarBC.DIRICHLET, ScalarBC.NEUMANN):
        assert len({core.scalar_stress(st2, bc, z).t00 for z in zs}) == 1
    for dim in range(3, 13):
        st = Spacetime(dim, 1.0)
        e0 = core.base_energy_density(st)
        for bc in (ScalarBC.DIRICHLET, ScalarBC.NEUMANN):
            t = core.scalar_stress(st, bc, 0.31, improved=True)
            assert t.t00 == e0
            assert t.t_transverse == -e0
            assert t.tzz == (dim - 1) * e0
            assert t.trace == 0.0
    with capsys.disabled():
        report(6, "conformal cases", "bitwise-constant profiles; improved tensor exact")


def test_criterion_07_maxwell_trace_identity(capsys):
    zs = [(i + 0.5) / 64 for i in range(64)]
    worst = 0.0
    for dim in range(3, 13):
        st = Spacetime(dim, 1.0)
        for bc in (EmBC.METALLIC, EmBC.MIT):
            for z in zs:
                t = core.em_stress(st, bc, z)
                fl = core.em_fluctuations(st, bc, z)
                rhs = (dim / 4 - 1) * core.field_invariant(fl, dim)
                scale = max(abs(t.t00), abs(t.tzz), 1e-300)
                worst = max(worst, abs(t.trace - rhs) / scale)
    assert worst <= 1e-10
    with capsys.disabled():
        report(7, "maxwell trace identity", f"worst residual {worst:.2e}")


def test_criterion_08_d4_fluctuation_displays(capsys):
    st4 = Spacetime(4, 1.0)
    worst = 0.0
    for zfrac in (0.25, 0.5, 0.75):
        theta = PI * zfrac
        fl = core.em_fluctuations(st4, EmBC.METALLIC, zfrac)
        want_ez = (PI**2 / 48) * (core.F_theta(theta) + 1 / 15)
        want_ei = (PI**2 / 48) * (core.F_theta(theta) - 1 / 15)
        worst = max(worst, rel_err(fl.ez2, want_ez), rel_err(fl.ei2, want_ei))
    assert worst <= 1e-10
    with capsys.disabled():
        report(8, "d4 fluctuation displays", f"worst rel err {worst:.2e}")


def test_criterion_09_subtracted_energy_cancellation(capsys):
    n_interior, n_ext = 1025, 32
    worst = 0.0
    slowest = 0.0
    for dim in range(5, 11):
        st = Spacetime(dim, 1.0)
        t0 = time.perf_counter()
        delta = 1e-8
        grid = (
            [-(i + 0.5) / n_ext for i in range(n_ext)]
            + list(np.linspace(delta, 1.0 - delta, n_interior))
            + [1.0 + (i + 0.5) / n_ext for i in range(n_ext)]
        )
        prof = core.subtracted_profile(st, EmBC.METALLIC, grid)
        split = oracle.profile_energy_integral(prof)
        want = core.total_energy_per_area(st, MAXWELL_METALLIC)
        worst = max(worst, rel_err(split.total, want))
        slowest = max(slowest, time.perf_counter() - t0)
    assert worst <= 1e-6
    assert slowest < 5.0
    with capsys.disabled():
        report(9, "energy cancellation", f"worst {worst:.2e}, slowest D {slowest:.2f} s")


def test_criterion_10_single_plate_limit(capsys):
    sp = core.single_plate_stress(6, EmBC.METALLIC, 1.0)
    far = core.em_stress(Spacetime(6, 1000.0), EmBC.METALLIC, 1.0)
    residual = rel_err(far.t00, sp.t00)
    assert residual <= 1e-6
    t4 = core.single_plate_stress(4, EmBC.METALLIC, 0.7)
    assert (t4.t00, t4.tzz, t4.t_transverse, t4.trace) == (0.0, 0.0, 0.0, 0.0)
    with capsys.disabled():
        report(10, "single-plate limit", f"rel dev at L/z=1e3: {residual:.2e}; D=4 exactly 0")
