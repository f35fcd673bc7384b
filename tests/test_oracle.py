"""Oracle tests: the brute-force evaluators against the closed forms."""

import math

import numpy as np
import pytest

from casimir_slab import core, oracle
from casimir_slab.core import EmBC, ScalarBC, Spacetime, Theory, TheoryKind
from casimir_slab.errors import (
    DomainError,
    IllConditionedFitError,
    InsufficientSamplesError,
)

PI = math.pi


def second_derivative(fn, z, h):
    """Central five-point stencil for f''(z), O(h^4) for smooth f."""
    return (
        -fn(z - 2.0 * h) + 16.0 * fn(z - h) - 30.0 * fn(z) + 16.0 * fn(z + h) - fn(z + 2.0 * h)
    ) / (12.0 * h * h)


def rel_err(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


# ------------------------------------------------------------------ types


def test_series_budget_validation():
    with pytest.raises(ValueError):
        oracle.SeriesBudget(max_images=100)
    with pytest.raises(ValueError):
        oracle.SeriesBudget(max_modes=10)
    with pytest.raises(ValueError):
        oracle.SeriesBudget(tail_order=-1)


def test_cutoff_schedule_validation():
    with pytest.raises(ValueError):
        oracle.CutoffSchedule(alphas=(0.1, 0.05, 0.01), fit_powers=(2, 1))
    with pytest.raises(ValueError):
        oracle.CutoffSchedule(alphas=(0.1, 0.2, 0.05, 0.01), fit_powers=(2, 1))
    with pytest.raises(ValueError):
        oracle.CutoffSchedule(alphas=(0.1, 0.05, 0.02, 0.01), fit_powers=(1, 2))
    with pytest.raises(ValueError):
        oracle.CutoffSchedule(alphas=(0.1, 0.05, 0.02, 0.01), fit_powers=(2, 0))


# ----------------------------------------------------------- green closed


def test_green_closed_example_value():
    got = oracle.green_closed(1.0, 0.3, 0.7, 1.0)
    want = math.sinh(0.3) ** 2 / math.sinh(1.0)
    assert rel_err(got, want) < 1e-14


def test_green_closed_boundary_and_symmetry():
    assert oracle.green_closed(1.0, 0.0, 0.7, 1.0) == 0.0
    assert oracle.green_closed(1.0, 0.7, 1.0, 1.0) == 0.0
    a = oracle.green_closed(2.3, 0.21, 0.68, 1.7)
    b = oracle.green_closed(2.3, 0.68, 0.21, 1.7)
    assert a == b


def test_green_closed_overflow_guard_branch_agrees():
    # straddle the switchover: both branches must agree where both work
    for kl in (650.0, 699.0):
        k = kl / 1.0
        direct = math.sinh(k * 0.4) * math.sinh(k * 0.5) / (k * math.sinh(k))
        got = oracle.green_closed(k, 0.4, 0.5, 1.0)
        assert rel_err(got, direct) < 1e-12
    # far side: must not overflow and must stay positive and tiny
    big = oracle.green_closed(800.0, 0.4, 0.5, 1.0)
    assert 0.0 < big < 1e-30


def test_green_closed_domain():
    with pytest.raises(DomainError):
        oracle.green_closed(0.0, 0.3, 0.7, 1.0)
    with pytest.raises(DomainError):
        oracle.green_closed(1.0, -0.1, 0.7, 1.0)


# --------------------------------------------------------------- mode sum


def test_green_mode_sum_matches_closed_form():
    budget = oracle.SeriesBudget(max_modes=10**4)
    got = oracle.green_mode_sum(1.0, 0.3, 0.7, 1.0, ScalarBC.DIRICHLET, budget)
    want = oracle.green_closed(1.0, 0.3, 0.7, 1.0)
    assert abs(got - want) < 1e-6


def test_green_mode_sum_even_terms_vanish_at_midpoint():
    # at z = zp = L/2 every even mode has a node, so adding one even
    # mode must not change the partial sum at all
    b_odd = oracle.SeriesBudget(max_modes=1999)
    b_even = oracle.SeriesBudget(max_modes=2000)
    a = oracle.green_mode_sum(1.0, 0.5, 0.5, 1.0, ScalarBC.DIRICHLET, b_odd)
    b = oracle.green_mode_sum(1.0, 0.5, 0.5, 1.0, ScalarBC.DIRICHLET, b_even)
    assert a == b


def test_green_mode_sum_neumann_zero_mode_via_ode():
    # the constant n = 0 term (1/(L k^2), equal to 1 here) is required
    # for the mode sum to satisfy (-d^2/dz^2 + k^2) g = 0 off-source
    budget = oracle.SeriesBudget(max_modes=10**4)
    k = 1.0
    g = oracle.green_mode_sum(k, 0.3, 0.7, 1.0, ScalarBC.NEUMANN, budget)
    fn = lambda z: oracle.green_mode_sum(k, z, 0.7, 1.0, ScalarBC.NEUMANN, budget)  # noqa: E731
    d2 = second_derivative(fn, 0.3, 1e-3)
    assert abs(d2 - k * k * g) < 1e-6
    # dropping the constant by hand must break the equation by k^2/L
    g_shifted = g - 1.0
    assert abs(d2 - k * k * g_shifted) > 0.5


def _sample_points(n=20, seed=20260808):
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < n:
        k = float(rng.uniform(0.1, 10.0))
        z = float(rng.uniform(0.1, 0.9))
        zp = float(rng.uniform(0.1, 0.9))
        if abs(z - zp) >= 0.1:
            pts.append((k, z, zp))
    return pts


def test_green_mode_sum_quadratic_convergence():
    b1 = oracle.SeriesBudget(max_modes=10**4)
    b2 = oracle.SeriesBudget(max_modes=2 * 10**4)
    errs1, errs2 = [], []
    for k, z, zp in _sample_points():
        exact = oracle.green_closed(k, z, zp, 1.0)
        errs1.append(abs(oracle.green_mode_sum(k, z, zp, 1.0, ScalarBC.DIRICHLET, b1) - exact))
        errs2.append(abs(oracle.green_mode_sum(k, z, zp, 1.0, ScalarBC.DIRICHLET, b2) - exact))
    assert max(errs1) < 1e-6
    rms1 = math.sqrt(sum(e * e for e in errs1) / len(errs1))
    rms2 = math.sqrt(sum(e * e for e in errs2) / len(errs2))
    assert 2.5 < rms1 / rms2 < 7.0


# -------------------------------------------------------------- image sum


def test_image_sum_d4_midpoint():
    budget = oracle.SeriesBudget(max_images=10**6)
    assert rel_err(oracle.image_profile_sum(4, 0.5, budget), PI**4 / 3) < 1e-10


def test_image_sum_d6_midpoint():
    budget = oracle.SeriesBudget(max_images=10**6)
    want = 126 * PI**6 / 945
    assert rel_err(oracle.image_profile_sum(6, 0.5, budget), want) < 1e-10


def test_image_sum_reflection_at_matched_truncation():
    budget = oracle.SeriesBudget(max_images=10**4)
    a = oracle.image_profile_sum(5, 0.2, budget)
    b = oracle.image_profile_sum(5, 0.8, budget)
    assert rel_err(a, b) < 1e-13


def test_image_sum_agrees_with_closed_profile():
    budget = oracle.SeriesBudget(max_images=10**6)
    for dim in range(3, 13):
        st = Spacetime(dim, 1.0)
        for x in (0.05, 0.1, 0.25, 0.5):
            assert rel_err(oracle.image_profile_sum(dim, x, budget), core.f_profile(st, x)) < 1e-10


def test_image_sum_tail_order_zero_is_worse_but_close():
    with_tail = oracle.image_profile_sum(3, 0.5, oracle.SeriesBudget(max_images=10**4))
    without = oracle.image_profile_sum(
        3, 0.5, oracle.SeriesBudget(max_images=10**4, tail_order=0)
    )
    want = core.f_profile(Spacetime(3, 1.0), 0.5)
    assert rel_err(with_tail, want) < rel_err(without, want)


def _reference_image_profile_sum(dim_D, x, budget):
    # the out-of-place expression image_profile_sum evaluates in one buffer
    j_cap = budget.max_images
    j = np.arange(-j_cap, j_cap + 1, dtype=np.float64)
    total = float((np.abs(j + x) ** (-float(dim_D))).sum())
    if budget.tail_order >= 1:
        total += 2.0 / ((dim_D - 1) * float(j_cap) ** (dim_D - 1))
    return total


def test_image_sum_in_place_keeps_the_out_of_place_bits():
    budgets = (
        oracle.SeriesBudget(),
        oracle.SeriesBudget(max_images=1000),
        oracle.SeriesBudget(max_images=1001, tail_order=0),
    )
    for budget in budgets:
        for dim in range(2, 13):
            for x in (1e-9, 0.1, 0.25, 0.5, 0.77, 1.0 - 1e-12):
                got = oracle.image_profile_sum(dim, x, budget)
                want = _reference_image_profile_sum(dim, x, budget)
                assert got.hex() == want.hex(), (budget, dim, x)


def test_image_sum_domain():
    budget = oracle.SeriesBudget()
    with pytest.raises(DomainError):
        oracle.image_profile_sum(4, 0.0, budget)
    with pytest.raises(DomainError):
        oracle.image_profile_sum(1, 0.5, budget)


# ----------------------------------------------------------------- cutoff


CUTOFF_BUDGET = oracle.SeriesBudget(max_modes=40000)


def test_cutoff_energy_d2():
    want = -PI / 24
    got = oracle.cutoff_casimir_energy(2, 1.0, oracle.default_cutoff_schedule(2), CUTOFF_BUDGET)
    assert rel_err(got, want) < 1e-3


def test_cutoff_energy_d2_length_scaling():
    want = -PI / 48
    got = oracle.cutoff_casimir_energy(2, 2.0, oracle.default_cutoff_schedule(2), CUTOFF_BUDGET)
    assert rel_err(got, want) < 1e-3


def test_cutoff_energy_d3():
    # frozen from the direct sum: zeta(3) = 1.2020569031595943
    want = -1.2020569031595943 / (16 * PI)
    got = oracle.cutoff_casimir_energy(3, 1.0, oracle.default_cutoff_schedule(3), CUTOFF_BUDGET)
    assert rel_err(got, want) < 1e-3


def test_cutoff_energy_matches_zeta_route():
    for dim in (2, 3):
        st = Spacetime(dim, 1.0)
        want = core.total_energy_per_area(st, Theory(TheoryKind.SCALAR_CANONICAL, ScalarBC.DIRICHLET))
        got = oracle.cutoff_casimir_energy(dim, 1.0, oracle.default_cutoff_schedule(dim), CUTOFF_BUDGET)
        assert rel_err(got, want) < 1e-3


def test_cutoff_energy_regulator_independence():
    for dim in (2, 3):
        a = oracle.cutoff_casimir_energy(dim, 1.0, oracle.default_cutoff_schedule(dim), CUTOFF_BUDGET)
        b = oracle.cutoff_casimir_energy(
            dim, 1.0, oracle.default_cutoff_schedule(dim, scale=2.0), CUTOFF_BUDGET
        )
        assert rel_err(b, a) < 2e-3


def _reference_regulated_energy_d3(L, alpha, max_modes):
    # the out-of-place expression oracle._regulated_energy_d3 evaluates in one buffer
    mu = math.pi / L
    n_max = min(int(math.ceil(45.0 / (alpha * mu))), max_modes)
    m = mu * np.arange(1, n_max + 1, dtype=np.float64)
    x = alpha * m
    h = 0.15
    t = np.arange(0.0, math.acosh(745.0 / float(x[0])) + h, h)
    ch = np.cosh(t)
    weights = ch * ch * h
    weights[0] *= 0.5
    with np.errstate(under="ignore"):
        g = np.exp(-np.outer(x, ch)) @ weights
    return float((m * m * g).sum()) / (2.0 * math.pi)


def test_regulated_energy_d3_in_place_keeps_the_out_of_place_bits():
    for length in (1.0, 0.37, 2.5):
        for scale in (1.0, 2.0, 6.0, 12.0):
            for alpha in oracle.default_cutoff_schedule(3, scale).alphas:
                for max_modes in (2000, 40000):
                    got = oracle._regulated_energy_d3(length, alpha, max_modes)
                    want = _reference_regulated_energy_d3(length, alpha, max_modes)
                    assert got.hex() == want.hex(), (length, alpha, max_modes)


def test_cutoff_narrow_schedule_raises():
    sched = oracle.CutoffSchedule(alphas=(0.02, 0.015, 0.012, 0.01), fit_powers=(2, 1))
    with pytest.raises(IllConditionedFitError):
        oracle.cutoff_casimir_energy(2, 1.0, sched, CUTOFF_BUDGET)


def test_cutoff_unsupported_dimension():
    with pytest.raises(DomainError):
        oracle.cutoff_casimir_energy(4, 1.0, oracle.default_cutoff_schedule(4), CUTOFF_BUDGET)


# ---------------------------------------------------- finite differences


def test_fd_second_derivative_sin():
    got = second_derivative(math.sin, 0.0, 1e-3)
    assert abs(got) < 1e-9


def test_fd_second_derivative_quartic():
    got = second_derivative(lambda x: x**4, 1.0, 1e-3)
    assert abs(got - 12.0) < 1e-8


def test_fd_green_ode_residual():
    k = 2.0
    fn = lambda z: oracle.green_closed(k, z, 0.7, 1.0)  # noqa: E731
    g = oracle.green_closed(k, 0.3, 0.7, 1.0)
    d2 = second_derivative(fn, 0.3, 1e-3)
    assert abs(d2 - k * k * g) < 1e-6


def test_fd_image_profile_curvature_pattern():
    # each image term obeys d^2/dx^2 |j+x|^-D = D(D+1) |j+x|^-(D+2), so
    # the profile's second derivative is D(D+1) times the profile two
    # dimensions up; this is the differentiation step behind the
    # constant-pressure result
    budget = oracle.SeriesBudget(max_images=10**5)
    for dim in (3, 4, 6):
        for x in (0.3, 0.5, 0.7):
            fn = lambda t: oracle.image_profile_sum(dim, t, budget)  # noqa: E731
            d2 = second_derivative(fn, x, 1e-3)
            want = dim * (dim + 1) * oracle.image_profile_sum(dim + 2, x, budget)
            assert rel_err(d2, want) < 1e-6


# ------------------------------------------------------- profile integral


def _subtracted(dim, n_interior=1025, n_ext=32, length=1.0):
    st = Spacetime(dim, length)
    delta = 1e-8 * length
    grid = (
        [-length * (i + 0.5) / n_ext for i in range(n_ext)]
        + list(np.linspace(delta, length - delta, n_interior))
        + [length + length * (i + 0.5) / n_ext for i in range(n_ext)]
    )
    return st, core.subtracted_profile(st, EmBC.METALLIC, grid)


def test_profile_energy_d4_splits():
    st, prof = _subtracted(4)
    split = oracle.profile_energy_integral(prof, st)
    assert split.exterior == 0.0
    assert rel_err(split.interior, -PI**2 / 720) < 1e-8
    assert rel_err(split.total, -PI**2 / 720) < 1e-8


def test_profile_energy_cancellation_d6():
    st, prof = _subtracted(6)
    split = oracle.profile_energy_integral(prof, st)
    want = core.total_energy_per_area(st, Theory(TheoryKind.MAXWELL, EmBC.METALLIC))
    assert rel_err(split.total, want) < 1e-6
    # the z-dependent pieces cancel between interior and exterior
    assert split.exterior != 0.0


def test_profile_energy_sample_doubling_stability():
    st, prof1 = _subtracted(6, n_interior=1025)
    _, prof2 = _subtracted(6, n_interior=2049)
    a = oracle.profile_energy_integral(prof1, st).total
    b = oracle.profile_energy_integral(prof2, st).total
    assert rel_err(b, a) < 1e-8


def test_profile_energy_insufficient_samples():
    st, prof = _subtracted(6, n_interior=100)
    with pytest.raises(InsufficientSamplesError):
        oracle.profile_energy_integral(prof, st)


def test_profile_energy_requires_uniform_grid():
    st = Spacetime(6, 1.0)
    rng = np.random.default_rng(7)
    grid = sorted(float(z) for z in rng.uniform(0.01, 0.99, size=300))
    prof = core.subtracted_profile(st, EmBC.METALLIC, grid)
    with pytest.raises(InsufficientSamplesError):
        oracle.profile_energy_integral(prof, st)
