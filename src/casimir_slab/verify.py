"""End-to-end consistency checks pairing closed forms with oracles.

Each check reports the worst residual it observed together with the
tolerance it was held to; the CLI renders the results as a
machine-readable table. Quick mode trades confidence for runtime: it
sums a tenth of the images and of the Green-function modes, fits
cutoffs six times larger, integrates a quarter of the interior samples,
and relaxes every tolerance 100x except those of the two convergence
rates.

Importing this module does not load numpy. Of the checks, only the
first HEAD, among them every one whose oracle sums a series, load it.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, TextIO

from . import core, oracle, specfun
from .core import EmBC, ScalarBC, Spacetime, Theory, TheoryKind, _Value

__all__ = ["HEAD", "CheckResult", "checks", "run_checks"]


class CheckResult(_Value):
    __match_args__ = __slots__ = ("name", "residual", "tolerance")
    name: str
    residual: float
    tolerance: float

    def __init__(self, name: str, residual: float, tolerance: float) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "residual", residual)
        object.__setattr__(self, "tolerance", tolerance)

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


def _rel(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def _spread(values: list[float]) -> float:
    lo, hi = min(values), max(values)
    return (hi - lo) / max(abs(lo), abs(hi), 1e-300)


_ALL_THEORIES = (
    Theory(TheoryKind.SCALAR_CANONICAL, ScalarBC.DIRICHLET),
    Theory(TheoryKind.SCALAR_CANONICAL, ScalarBC.NEUMANN),
    Theory(TheoryKind.SCALAR_IMPROVED, ScalarBC.DIRICHLET),
    Theory(TheoryKind.SCALAR_IMPROVED, ScalarBC.NEUMANN),
    Theory(TheoryKind.MAXWELL, EmBC.METALLIC),
    Theory(TheoryKind.MAXWELL, EmBC.MIT),
)


def _check_classic_pressure(tol: float) -> list[CheckResult]:
    st = Spacetime(4, 1.0)
    got = core.pressure(st, Theory(TheoryKind.MAXWELL, EmBC.METALLIC))
    return [CheckResult("classic-pressure-d4", _rel(got, -math.pi**2 / 240.0), tol)]


def _check_f_dual_forms(budget: oracle.SeriesBudget, tol: float) -> list[CheckResult]:
    worst = 0.0
    for dim in (4, 6, 8):
        st = Spacetime(dim, 1.0)
        for x in (0.1, 0.25, 0.5):
            hurwitz_form = core.f_profile(st, x)
            image = oracle.image_profile_sum(dim, x, budget)
            cot_form = (
                math.pi**dim
                / math.factorial(dim - 1)
                * specfun.cot_derivative(dim - 1, math.pi * x)
            )
            worst = max(
                worst,
                _rel(hurwitz_form, image),
                _rel(cot_form, image),
                _rel(hurwitz_form, cot_form),
            )
    worst = max(worst, _rel(core.f_profile(Spacetime(4, 1.0), 0.5), math.pi**4 / 3.0))
    return [CheckResult("f-profile-dual-closed-forms", worst, tol)]


# 20 (k, z, zp) with 0.1 <= k < 10, 0.1 <= z, zp < 0.9 and |z - zp| >= 0.1,
# drawn once from numpy.random.default_rng(20260808) and written out, so that
# the check never imports numpy.random.
_GREEN_POINTS = (
    (7.086920641914623, 0.14657744030982506, 0.6984909157447159),
    (4.814078443058634, 0.5648535274788895, 0.7364726222519703),
    (0.8672362404903883, 0.3355330037813863, 0.17678812623743703),
    (7.156886308376476, 0.24064575079356543, 0.3779271592034239),
    (0.5242184635440358, 0.6296307961746213, 0.7869668063122485),
    (9.471350321583797, 0.5020957057521785, 0.21057091191051863),
    (7.711307954488435, 0.5938662064475817, 0.7865685674209316),
    (2.1770019770761144, 0.10149462064186868, 0.6035259365752526),
    (1.373528839559029, 0.5641653150892231, 0.31695666925226773),
    (8.249720135995911, 0.7531112266869575, 0.4448868848996169),
    (4.181442078967882, 0.47880584175655005, 0.8472742712202236),
    (3.708093771551642, 0.7127003752585072, 0.27828041696672234),
    (6.526290640565724, 0.4592086362777501, 0.20423773108705376),
    (8.297471829814665, 0.8570323692146429, 0.24103410568169661),
    (6.55064786770299, 0.37437804821973786, 0.23965671254397486),
    (8.069323009894381, 0.4424434402475351, 0.7131361466307308),
    (5.420787644945356, 0.15283312133927068, 0.43627383419688104),
    (7.543735261044856, 0.4330915238306434, 0.5567832033559568),
    (6.287004573864058, 0.6682784855016582, 0.22015187013109366),
    (8.129223634313577, 0.7099561235694267, 0.8760461229507096),
)


def _check_green(budget: oracle.SeriesBudget, tol: float) -> list[CheckResult]:
    doubled = oracle.SeriesBudget(max_images=budget.max_images, max_modes=2 * budget.max_modes)
    errs, errs2 = [], []
    for k, z, zp in _GREEN_POINTS:
        exact = oracle.green_closed(k, z, zp, 1.0)
        errs.append(
            abs(oracle.green_mode_sum(k, z, zp, 1.0, ScalarBC.DIRICHLET, budget) - exact)
        )
        errs2.append(
            abs(oracle.green_mode_sum(k, z, zp, 1.0, ScalarBC.DIRICHLET, doubled) - exact)
        )
    rms = math.sqrt(sum(e * e for e in errs) / len(errs))
    rms2 = math.sqrt(sum(e * e for e in errs2) / len(errs2))
    ratio = rms / max(rms2, 1e-300)
    return [
        CheckResult("green-mode-vs-closed", max(errs), tol),
        # quadratic truncation error: doubling the modes should cut the
        # rms error by about 4; allow [1, 7].
        CheckResult("green-convergence-rate", abs(ratio / 4.0 - 1.0), 0.75),
    ]


def _check_cutoff(tol: float, scale: float) -> list[CheckResult]:
    worst = 0.0
    drift = 0.0
    for dim in (2, 3):
        st = Spacetime(dim, 1.0)
        want = core.total_energy_per_area(
            st, Theory(TheoryKind.SCALAR_CANONICAL, ScalarBC.DIRICHLET)
        )
        got = oracle.cutoff_casimir_energy(dim, 1.0, scale=scale)
        worst = max(worst, _rel(got, want))
        got_doubled = oracle.cutoff_casimir_energy(dim, 1.0, scale=2.0 * scale)
        drift = max(drift, _rel(got_doubled, got))
    return [
        CheckResult("cutoff-zeta-validation", worst, tol),
        CheckResult("cutoff-regulator-independence", drift, 2.0 * tol),
    ]


def _check_pressure_constancy(tol_spread: float, tol_force: float) -> list[CheckResult]:
    worst_spread = 0.0
    worst_force = 0.0
    zs = [(i + 0.5) / 64.0 for i in range(64)]
    for dim in range(2, 13):
        st = Spacetime(dim, 1.0)
        for th in _ALL_THEORIES:
            if th.kind is TheoryKind.MAXWELL and dim < 3:
                continue
            if th.kind is TheoryKind.MAXWELL:
                rows = core.em_stress_rows(st, th.bc, zs)
            else:
                rows = core.scalar_stress_rows(
                    st, th.bc, zs, improved=th.kind is TheoryKind.SCALAR_IMPROVED
                )
            worst_spread = max(worst_spread, _spread([row[1] for row in rows]))
            h = 1e-6
            fd = -(
                core.total_energy_per_area(Spacetime(dim, 1.0 + h), th)
                - core.total_energy_per_area(Spacetime(dim, 1.0 - h), th)
            ) / (2.0 * h)
            p = core.pressure(st, th)
            worst_force = max(worst_force, abs(fd - p) / max(abs(p), 1e-30))
    return [
        CheckResult("pressure-z-uniformity", worst_spread, tol_spread),
        CheckResult("force-energy-consistency", worst_force, tol_force),
    ]


def _check_conformal_and_improved(tol: float) -> list[CheckResult]:
    zs = [(i + 0.5) / 16.0 for i in range(16)]
    em = core.em_stress_rows(Spacetime(4, 1.0), EmBC.METALLIC, zs)
    scalar = core.scalar_stress_rows(Spacetime(2, 1.0), ScalarBC.DIRICHLET, zs)
    worst_const = max(_spread([row[0] for row in em]), _spread([row[0] for row in scalar]))

    worst_improved = 0.0
    for dim in range(3, 13):
        st = Spacetime(dim, 1.0)
        e0 = core.base_energy_density(st)
        t = core.scalar_stress(st, ScalarBC.NEUMANN, 0.37, improved=True)
        scale = abs(e0)
        worst_improved = max(
            worst_improved,
            abs(t.t00 - e0) / scale,
            abs(t.t_transverse + e0) / scale,
            abs(t.tzz - (dim - 1) * e0) / scale,
            abs(t.trace) / scale,
        )
    return [
        CheckResult("conformal-constancy", worst_const, tol),
        CheckResult("improved-tensor-pattern", worst_improved, tol),
    ]


def _check_trace_identity(tol: float) -> list[CheckResult]:
    worst = 0.0
    for dim in range(3, 11):
        st = Spacetime(dim, 1.0)
        for bc in (EmBC.METALLIC, EmBC.MIT):
            for z in (0.1, 0.3, 0.5):
                t = core.em_stress(st, bc, z)
                fl = core.em_fluctuations(st, bc, z)
                rhs = (dim / 4.0 - 1.0) * core.field_invariant(fl, dim)
                scale = max(abs(t.t00), abs(t.tzz), 1e-300)
                worst = max(worst, abs(t.trace - rhs) / scale)
    return [CheckResult("maxwell-trace-identity", worst, tol)]


def _check_duality_and_displays(tol: float) -> list[CheckResult]:
    worst = 0.0
    for dim in (3, 4, 6, 9):
        st = Spacetime(dim, 1.0)
        for z in (0.2, 0.5, 0.8):
            met = core.em_fluctuations(st, EmBC.METALLIC, z)
            mit = core.em_fluctuations(st, EmBC.MIT, z)
            scale = max(abs(met.ez2), abs(met.ei2), 1e-300)
            worst = max(worst, abs(met.biz2 + met.ez2) / scale)
            if dim > 3:
                worst = max(worst, abs(met.bij2 + met.ei2) / scale)
            # swapping the wall type flips only the profile term, so the
            # bc sum must reduce to twice the uniform part; measured
            # relative to the (possibly much larger) summands, since the
            # profile terms cancel in float arithmetic
            sum_ez = met.ez2 + mit.ez2
            base = -2.0 * (dim - 2) * core.base_energy_density(st)
            worst = max(
                worst, abs(sum_ez - base) / max(abs(met.ez2), abs(mit.ez2), base)
            )
    st4 = Spacetime(4, 1.0)
    for zfrac in (0.25, 0.5, 0.75):
        theta = math.pi * zfrac
        fl = core.em_fluctuations(st4, EmBC.METALLIC, zfrac)
        want_ez = (math.pi**2 / 48.0) * (core.F_theta(theta) + 1.0 / 15.0)
        want_ei = (math.pi**2 / 48.0) * (core.F_theta(theta) - 1.0 / 15.0)
        worst = max(worst, _rel(fl.ez2, want_ez), _rel(fl.ei2, want_ei))
    return [CheckResult("duality-and-d4-displays", worst, tol)]


def _check_degeneracy(tol: float) -> list[CheckResult]:
    worst = 0.0
    for dim in range(3, 13):
        st = Spacetime(dim, 1.0)
        for em_bc in (EmBC.METALLIC, EmBC.MIT):
            em_tzz = core.em_stress(st, em_bc, 0.31).tzz
            sc_tzz = core.scalar_stress(st, em_bc.scalar_bc, 0.31).tzz
            worst = max(worst, _rel(em_tzz, (dim - 2) * sc_tzz))
        # Dirichlet/Neumann exchange flips only the profile term: the bc
        # sum drops it, so compare at the scale of the summands (the
        # profile terms can dwarf the uniform part near the plates)
        zd = core.scalar_energy_density(st, ScalarBC.DIRICHLET, 0.2)
        zn = core.scalar_energy_density(st, ScalarBC.NEUMANN, 0.2)
        e0 = core.base_energy_density(st)
        worst = max(worst, abs(zd + zn - 2.0 * e0) / max(abs(zd), abs(zn), abs(e0)))
    return [CheckResult("bc-exchange-and-degeneracy", worst, tol)]


def _check_cancellation(n_interior: int, tol: float) -> list[CheckResult]:
    worst = 0.0
    n_ext = 32
    for dim in range(5, 11):
        st = Spacetime(dim, 1.0)
        delta = 1e-8
        # numpy.linspace(delta, 1 - delta, n_interior), bit for bit
        step = (1.0 - delta - delta) / (n_interior - 1)
        interior = [i * step + delta for i in range(n_interior - 1)] + [1.0 - delta]
        grid = (
            [-(i + 0.5) / n_ext for i in range(n_ext)]
            + interior
            + [1.0 + (i + 0.5) / n_ext for i in range(n_ext)]
        )
        prof = core.subtracted_profile(st, EmBC.METALLIC, grid)
        split = oracle.profile_energy_integral(prof)
        want = core.total_energy_per_area(st, Theory(TheoryKind.MAXWELL, EmBC.METALLIC))
        worst = max(worst, _rel(split.total, want))
    return [CheckResult("subtracted-energy-cancellation", worst, tol)]


def _check_single_plate(tol: float) -> list[CheckResult]:
    sp = core.single_plate_stress(6, EmBC.METALLIC, 1.0)
    far = core.em_stress(Spacetime(6, 1000.0), EmBC.METALLIC, 1.0)
    residual = _rel(far.t00, sp.t00)
    t4 = core.single_plate_stress(4, EmBC.METALLIC, 0.7)
    exact_zero = max(abs(t4.t00), abs(t4.tzz), abs(t4.t_transverse), abs(t4.trace))
    # convergence rate measured where the deviation is still far above
    # double-precision noise
    dev10 = _rel(core.em_stress(Spacetime(6, 10.0), EmBC.METALLIC, 1.0).t00, sp.t00)
    dev100 = _rel(core.em_stress(Spacetime(6, 100.0), EmBC.METALLIC, 1.0).t00, sp.t00)
    slope = math.log10(dev10 / dev100)
    return [
        CheckResult("single-plate-limit", max(residual, exact_zero), tol),
        CheckResult("single-plate-falloff-rate", abs(slope - 6.0), 0.5),
    ]


# The CLI process runs the first HEAD checks of the suite and one forked
# worker the rest. The head holds every check whose oracle sums a series, so
# the worker, forked before numpy is loaded, never loads it. Timed in their two
# processes on 2 CPUs at full budgets, each with one BLAS thread (20 fresh
# runs), the head, numpy's import included, took 98-160 ms (median 134) and the
# tail 66-237 ms (median 93).
HEAD = 4


def checks(quick: bool = False) -> list[Callable[[], list[CheckResult]]]:
    """The suite as zero-argument callables, in row order; each returns its results."""
    relax = 100.0 if quick else 1.0
    # 10^5 images reach the rounding level of 10^6 in a tenth of the time
    # (see the table in oracle.image_profile_sum)
    images = 10**4 if quick else 10**5
    modes = 10**3 if quick else 10**4
    cutoff_scale = 6.0 if quick else 1.0
    budget = oracle.SeriesBudget(max_images=images, max_modes=modes)
    n_interior = 257 if quick else 1025

    return [
        partial(_check_classic_pressure, 1e-10 * relax),
        partial(_check_f_dual_forms, budget, 1e-9 * relax),
        partial(_check_green, budget, 1e-6 * relax),
        partial(_check_cutoff, 1e-3 * relax, cutoff_scale),
        partial(_check_pressure_constancy, 1e-10 * relax, 1e-7 * relax),
        partial(_check_conformal_and_improved, 1e-10 * relax),
        partial(_check_trace_identity, 1e-10 * relax),
        partial(_check_duality_and_displays, 1e-10 * relax),
        partial(_check_degeneracy, 1e-10 * relax),
        partial(_check_cancellation, n_interior, 1e-6 * relax),
        partial(_check_single_plate, 1e-6 * relax),
    ]


def run_checks(quick: bool = False) -> list[CheckResult]:
    """Run every consistency check in one process; returns one result per row.

    The results of the callables of checks(quick), in order. The CLI runs
    those callables itself, split across two processes where it can (see
    HEAD), with the same results and the same first error.
    """
    return [result for check in checks(quick) for result in check()]


# The text in which the CLI passes results from one process to another.


def _write_checks(
    checks: list[Callable[[], list[CheckResult]]], out: TextIO, guard: Callable
) -> None:
    # Run the checks, each as guard(check)(), and write one line per result,
    # its name and float.hex residual and tolerance, then the number of
    # results, so that a text cut short never reads as whole.
    results = [r for check in checks for r in guard(check)()]
    lines = [f"{r.name} {r.residual.hex()} {r.tolerance.hex()}\n" for r in results]
    out.write("".join(lines) + f"{len(lines)}\n")


def _read_checks(source: TextIO) -> list[CheckResult]:
    # The results _write_checks wrote, or ValueError if they are not all there.
    *lines, count, end = source.read().split("\n")
    if end or count != str(len(lines)):
        raise ValueError("check results cut short")
    results = []
    for line in lines:
        name, residual, tolerance = line.split(" ")
        results.append(CheckResult(name, float.fromhex(residual), float.fromhex(tolerance)))
    return results
