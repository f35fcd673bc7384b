"""Oracle tests: the brute-force evaluators against the closed forms."""

import dataclasses
import gc
import math
import tracemalloc

import numpy as np
import pytest

from casimir_slab import core, oracle
from casimir_slab.core import EmBC, ScalarBC, Spacetime, Theory, TheoryKind
from casimir_slab.errors import DomainError, InsufficientSamplesError

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
    # a float budget was once kept, and a sum then raised TypeError on it
    for field, value in (("max_images", 1e4), ("max_modes", 1e4), ("max_modes", 2500.5)):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            oracle.SeriesBudget(**{field: value})
    assert oracle.SeriesBudget(np.int64(5000)) == oracle.SeriesBudget(5000)


def test_series_budget_has_an_upper_bound():
    # 10^400 was once kept, and a sum then raised OverflowError converting it
    # to a double; 10^18 was kept too, and a sum ran for ages.
    for field in ("max_images", "max_modes"):
        for value in (2**32 + 1, 10**400):
            with pytest.raises(ValueError, match=f"^{field} must lie between"):
                oracle.SeriesBudget(**{field: value})
        assert getattr(oracle.SeriesBudget(**{field: 2**32}), field) == 2**32


def test_image_profile_sum_rejects_non_finite_dimensions():
    # D = inf once gave inf and D = nan gave nan: 0.3 ** -inf does not overflow.
    budget = oracle.SeriesBudget(max_images=10**3, max_modes=10**3)
    for dim in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError):
            oracle.image_profile_sum(dim, 0.3, budget)


@pytest.mark.filterwarnings("error")
def test_image_profile_sum_raises_where_the_sum_overflows():
    # At x = 1/2 the two nearest images each give 2^D: D = 1023.5 once made
    # numpy warn and return inf.
    budget = oracle.SeriesBudget(max_images=10**3, max_modes=10**3)
    with pytest.raises(DomainError, match="overflows"):
        oracle.image_profile_sum(1023.5, 0.5, budget)
    assert math.isfinite(oracle.image_profile_sum(1000.0, 0.5, budget))


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


def test_green_closed_wide_slab_does_not_overflow():
    # a + b - c once cancelled to a rounding error of ulp(kbar L), here 2048,
    # and exp of it overflowed; at z = zp far from both plates G is 1/(2 kbar).
    got = oracle.green_closed(194.0, 194.0, 194.0, 4.547888336523919e16)
    assert rel_err(got, 1.0 / (2.0 * 194.0)) < 1e-15


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


@pytest.mark.filterwarnings("error")  # numpy must not warn either
def test_green_closed_domain():
    with pytest.raises(DomainError):
        oracle.green_closed(0.0, 0.3, 0.7, 1.0)
    with pytest.raises(DomainError):
        oracle.green_closed(1.0, -0.1, 0.7, 1.0)
    # a non-finite k, L or k L, and a k whose k sinh(k L) underflows
    for kbar, length in ((math.inf, 1.0), (1.0, math.inf), (1e200, 1e200), (1e-170, 1.0), (1e-160, 1.0)):
        with pytest.raises(DomainError):
            oracle.green_closed(kbar, 0.3 * length, 0.7 * length, length)
    assert rel_err(oracle.green_closed(1e-150, 0.3, 0.7, 1.0), 0.09) < 1e-13
    budget = oracle.SeriesBudget(max_modes=1000)
    for kbar, length, bc in (
        (math.inf, 1.0, ScalarBC.DIRICHLET),
        (1e-170, 1.0, ScalarBC.NEUMANN),  # 1/(L k^2) divides by 0
        (1e-160, 1.0, ScalarBC.NEUMANN),  # 1/(L k^2) overflows
        (1.0, 1e-155, ScalarBC.DIRICHLET),  # (n pi/L)^2 overflows
        (1e-170, 1e170, ScalarBC.DIRICHLET),  # k^2 + (pi/L)^2 underflows
    ):
        with pytest.raises(DomainError):
            oracle.green_mode_sum(kbar, 0.3 * length, 0.7 * length, length, bc, budget)
    # with Dirichlet walls a tiny k is harmless: the sum tends to the k = 0 Green function
    got = oracle.green_mode_sum(1e-170, 0.3, 0.7, 1.0, ScalarBC.DIRICHLET, budget)
    assert abs(got - 0.09) < 1e-5


# --------------------------------------------------------------- mode sum


def test_green_mode_sum_rejects_an_invalid_bc_before_any_other_check():
    # Each of these once gave the Neumann sum, 0.19374 for the Dirichlet 0.05588.
    budget = oracle.SeriesBudget(max_modes=1000)
    for bad in (EmBC.METALLIC, "dirichlet", None):
        for kbar in (2.0, -1.0):
            with pytest.raises(ValueError, match=f"got {bad!r}$") as info:
                oracle.green_mode_sum(kbar, 0.3, 0.7, 1.0, bad, budget)
            assert type(info.value) is ValueError


def test_green_mode_sum_matches_closed_form():
    budget = oracle.SeriesBudget(max_modes=10**4)
    got = oracle.green_mode_sum(1.0, 0.3, 0.7, 1.0, ScalarBC.DIRICHLET, budget)
    want = oracle.green_closed(1.0, 0.3, 0.7, 1.0)
    assert abs(got - want) < 1e-6


def _block_rule_sum(terms, block=oracle._BLOCK):
    # The oracles' summation rule over a whole array of terms: numpy sums
    # each run of `block` consecutive terms, math.fsum the run sums.
    return math.fsum(float(terms[i : i + block].sum()) for i in range(0, terms.size, block))


def _reference_green_mode_sum(kbar, z, zp, L, bc, budget):
    # the whole-array terms green_mode_sum evaluates block by block in place
    phase = np.pi / L
    n = np.arange(1, budget.max_modes + 1, dtype=np.float64)
    denom = kbar * kbar + (n * phase) ** 2
    trig = np.sin if bc is ScalarBC.DIRICHLET else np.cos
    terms = trig(n * (phase * z)) * trig(n * (phase * zp)) / denom
    extra = 1.0 / (L * kbar * kbar) if bc is ScalarBC.NEUMANN else 0.0
    return (2.0 / L) * _block_rule_sum(terms) + extra


def test_green_mode_sum_in_place_terms_give_the_block_rule_bits():
    block = oracle._BLOCK
    for max_modes in (10**3, 10**4, block - 1, block, block + 1, 2 * 10**4, 8 * block + 3):
        budget = oracle.SeriesBudget(max_modes=max_modes)
        for bc in ScalarBC:
            for kbar, z, zp, length in (
                (1.0, 0.3, 0.7, 1.0),
                (7.086920641914623, 0.14657744030982506, 0.6984909157447159, 1.0),
                (0.05, 0.0, 0.61, 2.5),
                (30.0, 0.2, 0.2, 0.4),
            ):
                got = oracle.green_mode_sum(kbar, z, zp, length, bc, budget)
                want = _reference_green_mode_sum(kbar, z, zp, length, bc, budget)
                assert got.hex() == want.hex(), (max_modes, bc, kbar, z, zp, length)


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


def _reference_image_profile_sum(dim_D, x, budget):
    # the whole-array terms image_profile_sum evaluates block by block in place
    j_cap = budget.max_images
    j = np.arange(-j_cap, j_cap + 1, dtype=np.float64)
    total = _block_rule_sum(np.abs(j + x) ** (-float(dim_D)))
    return total + 2.0 / ((dim_D - 1) * float(j_cap) ** (dim_D - 1))


def test_image_sum_in_place_terms_give_the_block_rule_bits():
    # 2J + 1 = 2^14 (one block) is even, so J = 8191 and 8192 straddle it;
    # 2J + 1 = 8 blocks + 3 leaves a last block of 3 terms
    block = oracle._BLOCK
    budgets = (
        oracle.SeriesBudget(),
        oracle.SeriesBudget(max_images=1000),
        oracle.SeriesBudget(max_images=1001),
        oracle.SeriesBudget(max_images=(block - 1) // 2),
        oracle.SeriesBudget(max_images=(block + 1) // 2),
        oracle.SeriesBudget(max_images=(8 * block + 3) // 2),
    )
    for budget in budgets:
        for dim in range(2, 13):
            for x in (1e-9, 0.1, 0.25, 0.5, 0.77, 1.0 - 1e-12):
                got = oracle.image_profile_sum(dim, x, budget)
                want = _reference_image_profile_sum(dim, x, budget)
                assert got.hex() == want.hex(), (budget, dim, x)


@pytest.mark.filterwarnings("error")  # numpy must not warn either
def test_image_sum_domain():
    budget = oracle.SeriesBudget(max_images=1000)
    with pytest.raises(DomainError):
        oracle.image_profile_sum(4, 0.0, budget)
    with pytest.raises(DomainError):
        oracle.image_profile_sum(1, 0.5, budget)
    # the nearest image's x^-D overflows
    for dim, x in ((2, 1e-160), (2, 1e-300), (12, 1e-30), (24, 1.0 - 2.0**-52)):
        with pytest.raises(DomainError):
            oracle.image_profile_sum(dim, x, budget)
    # the two 2^1023 terms of j = -1 and 0 add to an overflow, within one block
    # and, at J = 2^14, across a block edge, where math.fsum raises OverflowError
    for j_cap in (1000, 2**14):
        with pytest.raises(DomainError, match="overflows"):
            oracle.image_profile_sum(1023, 0.5, oracle.SeriesBudget(max_images=j_cap))
    assert rel_err(oracle.image_profile_sum(2, 1e-150, budget), 1e300) < 1e-15
    # J^(D-1) of the tail correction overflows; the tail itself is negligible
    assert oracle.image_profile_sum(104, 0.5, budget) == 2.0**105


# ----------------------------------------------------------------- cutoff


def _cutoffs(scale):
    # The eight cutoffs, in units of L, that cutoff_casimir_energy fits at scale.
    seen = []
    real = oracle._regulated_energy_d2
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_regulated_energy_d2", lambda alpha: seen.append(alpha) or real(alpha))
        oracle.cutoff_casimir_energy(2, 1.0, scale=scale)
    return seen


def test_cutoff_energy_d2():
    want = -PI / 24
    got = oracle.cutoff_casimir_energy(2, 1.0, scale=1.0)
    assert rel_err(got, want) < 1e-3


def test_cutoff_energy_d2_length_scaling():
    want = -PI / 48
    got = oracle.cutoff_casimir_energy(2, 2.0, scale=1.0)
    assert rel_err(got, want) < 1e-3


def test_cutoff_energy_d3():
    # frozen from the direct sum: zeta(3) = 1.2020569031595943
    want = -1.2020569031595943 / (16 * PI)
    got = oracle.cutoff_casimir_energy(3, 1.0, scale=1.0)
    assert rel_err(got, want) < 1e-3


def test_cutoff_energy_matches_zeta_route():
    for dim in (2, 3):
        st = Spacetime(dim, 1.0)
        want = core.total_energy_per_area(st, Theory(TheoryKind.SCALAR_CANONICAL, ScalarBC.DIRICHLET))
        got = oracle.cutoff_casimir_energy(dim, 1.0, scale=1.0)
        assert rel_err(got, want) < 1e-3


def test_cutoff_energy_regulator_independence():
    for dim in (2, 3):
        a = oracle.cutoff_casimir_energy(dim, 1.0, scale=1.0)
        b = oracle.cutoff_casimir_energy(dim, 1.0, scale=2.0)
        assert rel_err(b, a) < 2e-3


def _reference_regulated_energy_d3(alpha):
    # the whole-array terms oracle._regulated_energy_d3 evaluates block by block in place
    mu = math.pi
    n_max = int(math.ceil(45.0 / (alpha * mu)))
    m = mu * np.arange(1, n_max + 1, dtype=np.float64)
    x = alpha * m
    h = 0.15
    t = np.arange(0.0, math.acosh(745.0 / float(x[0])) + h, h)
    ch = np.cosh(t)
    weights = ch * ch * h
    weights[0] *= 0.5
    with np.errstate(under="ignore"):
        g = np.exp(-np.outer(x, ch)) @ weights
    return _block_rule_sum(m * m * g, oracle._D3_ROWS) / (2.0 * math.pi)


def test_regulated_energy_d3_in_place_terms_give_the_block_rule_bits():
    # at L = 1, on the cutoffs of verify's scales, and on those cutoffs divided
    # by L = 0.37 and 2.5 too
    for length in (1.0, 0.37, 2.5):
        for scale in (1.0, 2.0, 6.0, 12.0):
            for alpha in _cutoffs(scale):
                alpha /= length
                got = oracle._regulated_energy_d3(alpha)
                want = _reference_regulated_energy_d3(alpha)
                assert got.hex() == want.hex(), alpha
    # more modes than one block of an image sum holds (each energy is summed
    # in blocks of 512 modes)
    block = oracle._BLOCK
    for n_max in (28648, 8 * block + 3):
        alpha = 45.0 / (PI * (n_max - 0.5))
        assert math.ceil(45.0 / (alpha * PI)) == n_max
        got = oracle._regulated_energy_d3(alpha)
        want = _reference_regulated_energy_d3(alpha)
        assert got.hex() == want.hex(), alpha


def test_every_series_lies_within_a_stated_bound_of_its_exact_sum(monkeypatch):
    # numpy's pairwise sum of at most 2^14 terms puts each term through at
    # most 31 rounded additions (8 running sums over runs of at most 128
    # terms, then halving), so a block's sum is within gamma_31 sum|t_i| of
    # the exact one, gamma_n = n u / (1 - n u) and u = 2^-53 (Higham,
    # Accuracy and Stability of Numerical Algorithms, 2002, section 4.2).
    # math.fsum over the block sums and the reference math.fsum over the
    # terms round once each, within u sum|t_i|: in all, under 34 u sum|t_i|.
    real = oracle._block_sum
    series = []

    def spy(first, count, terms, block=oracle._BLOCK):
        got = real(first, count, terms, block)
        values = []

        def keep(buffer):
            terms(buffer)
            values.extend(buffer.tolist())

        real(first, count, keep, block)
        series.append((got, count, block, values))
        return got

    monkeypatch.setattr(oracle, "_block_sum", spy)
    energy = oracle._regulated_energy_d3.__wrapped__
    block = oracle._BLOCK
    for max_modes, max_images in ((10**4, 10**3), (7 * block + 5, 2 * block)):
        budget = oracle.SeriesBudget(max_images=max_images, max_modes=max_modes)
        for bc in ScalarBC:
            oracle.green_mode_sum(7.086920641914623, 0.14657744030982506, 0.7, 1.0, bc, budget)
        for dim, x in ((3, 0.5), (4, 0.1), (12, 0.77)):
            oracle.image_profile_sum(dim, x, budget)
    for n_max in (300, 28648):  # part of one block of 512 modes, and 56 blocks
        energy(45.0 / (PI * (n_max - 0.5)))
    assert {count > size for _, count, size, _ in series} == {False, True}
    for got, count, size, values in series:
        assert len(values) == count
        bound = 34 * 2.0**-53 * math.fsum(map(abs, values))
        assert abs(got - math.fsum(values)) <= bound, (count, size)


def _traced_bytes(fn):
    # The peak of what fn allocates and what it leaves allocated on return,
    # with the garbage collector off: numpy reports its array buffers to
    # tracemalloc, and a buffer held by a reference cycle stays counted.
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        fn()
        current, peak = tracemalloc.get_traced_memory()
        return peak, current
    finally:
        tracemalloc.stop()
        gc.enable()


def test_series_working_memory_does_not_grow_with_the_budget():
    # Whole-array sums held 16 MB for an image sum at the default budget and
    # 8.5 MB for the D = 3 energy at the smallest cutoff of scale 1, ten times
    # that at ten times the budget (the D = 3 modes at a tenth of the cutoff).
    smallest = _cutoffs(1.0)[-1]
    for scale in (1, 10):
        budget = oracle.SeriesBudget(max_images=scale * 10**6, max_modes=scale * 10**4)
        series = {
            "image_profile_sum": lambda: oracle.image_profile_sum(6, 0.25, budget),
            "green_mode_sum": lambda: oracle.green_mode_sum(
                1.0, 0.3, 0.7, 1.0, ScalarBC.NEUMANN, budget
            ),
            "_regulated_energy_d3": lambda: oracle._regulated_energy_d3.__wrapped__(smallest / scale),
        }
        for name, fn in series.items():
            peak, left = _traced_bytes(fn)
            assert peak < 2.5e6, (name, scale, peak)
            assert left < 1e4, (name, scale, left)


def test_doubled_cutoff_schedule_shares_six_cutoffs_bit_for_bit():
    # verify's regulator-independence check fits both scales, 1 with full
    # budgets and 6 with --quick; the cutoffs are those of the schedule the
    # oracle once took as an argument, bit for bit
    for scale in (1.0, 6.0):
        default, doubled = _cutoffs(scale), _cutoffs(2.0 * scale)
        assert len(set(map(float.hex, default)) & set(map(float.hex, doubled))) == 6
        for cutoffs, s in ((default, scale), (doubled, 2.0 * scale)):
            assert cutoffs == [s * 0.014 * 2.0 ** (-k / 2.0) for k in range(8)]


def test_a_cutoff_check_evaluates_each_shared_d3_energy_once():
    from casimir_slab import verify

    for quick in (False, True):
        (check,) = [c for c in verify.checks(quick) if c.func is verify._check_cutoff]
        oracle._regulated_energy_d3.cache_clear()
        check()
        info = oracle._regulated_energy_d3.cache_info()
        assert (info.misses, info.hits) == (10, 6), quick


def test_cutoff_schedule_validation():
    # The cutoffs are fixed, and they keep what the free-form schedule was
    # checked for: at least four positive, strictly decreasing cutoffs that
    # span more than the decade the fit needs (2^3.5), at every scale that
    # returns a value.
    for scale in (0.5, 1.0, 2.0, 6.0, 12.0, 16.0):
        alphas = _cutoffs(scale)
        assert len(alphas) == 8 and alphas[-1] > 0.0
        assert all(a > b for a, b in zip(alphas, alphas[1:]))
        assert alphas[0] / alphas[-1] == pytest.approx(2.0**3.5)


@pytest.mark.filterwarnings("error")
def test_cutoff_schedule_rejects_non_finite_cutoffs():
    # a non-finite scale makes every cutoff non-finite: an infinite cutoff
    # once gave a wrong constant, and a NaN one a LAPACK error
    for dim in (2, 3):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError, match="requires 0 < scale <= 16"):
                oracle.cutoff_casimir_energy(dim, 1.0, scale=bad)
    with pytest.raises(TypeError):  # scale is keyword-only; 3 once meant scale 3
        oracle.cutoff_casimir_energy(2, 1.0, 3.0)


@pytest.mark.filterwarnings("error")
def test_cutoff_scale_bounds():
    # scale 32 and 1e4 once returned results off by 8.6e-2 and 1.04 at D = 2
    # with no error; at D = 3, 5e-324 rounds every cutoff to 0 and once
    # raised ZeroDivisionError counting the modes
    th = Theory(TheoryKind.SCALAR_CANONICAL, ScalarBC.DIRICHLET)
    for dim in (2, 3):
        bad = [16.5, 32.0, 1e4, 0.0, -1.0]
        if dim == 3:
            bad += [5e-324, 1e-300, 0.3]
        for scale in bad:
            with pytest.raises(DomainError):
                oracle.cutoff_casimir_energy(dim, 1.0, scale=scale)
        want = core.total_energy_per_area(Spacetime(dim, 1.0), th)
        for scale in (0.5, 1.0, 3.0, 6.0, 12.0, 16.0):
            assert rel_err(oracle.cutoff_casimir_energy(dim, 1.0, scale=scale), want) < 0.1


@pytest.mark.filterwarnings("error")
def test_d3_mode_cap_rejects_no_scale_the_rounding_check_accepts():
    # 2^15 modes admit every scale down to 0.3533, and the rounding check
    # already rejects every scale below 0.45 (25724 modes), so the cap turns
    # away no value that would be returned without it.
    alpha = 0.45 * 0.014 * 2.0**-3.5
    assert math.ceil(45.0 / (alpha * PI)) == 25724
    want = core.total_energy_per_area(
        Spacetime(3, 1.0), Theory(TheoryKind.SCALAR_CANONICAL, ScalarBC.DIRICHLET)
    )
    assert rel_err(oracle.cutoff_casimir_energy(3, 1.0, scale=0.45), want) < 0.1
    for scale in (0.42, 0.36, 0.354):
        with pytest.raises(DomainError, match="swamps the constant"):
            oracle.cutoff_casimir_energy(3, 1.0, scale=scale)
    with pytest.raises(DomainError, match=r"needs more than 2\^15 modes"):
        oracle.cutoff_casimir_energy(3, 1.0, scale=0.353)


def test_cutoff_unsupported_dimension():
    with pytest.raises(DomainError):
        oracle.cutoff_casimir_energy(4, 1.0, scale=1.0)


def _cutoff_residual(dim, length):
    st = Spacetime(dim, length)
    want = core.total_energy_per_area(st, Theory(TheoryKind.SCALAR_CANONICAL, ScalarBC.DIRICHLET))
    return rel_err(oracle.cutoff_casimir_energy(dim, length, scale=1.0), want)


def test_cutoff_energy_is_the_same_fit_at_every_length():
    # The cutoffs are in units of L, so only the exact factor L^-(D-1)
    # depends on L. Unscaled cutoffs once gave +5.08 for -130.9 at D = 2,
    # L = 1e-3, and a truncated mode sum +1.13e7 for -2.66e-5 at D = 3, L = 30.
    for dim, residual in ((2, "8.97e-05"), (3, "2.75e-04")):
        for length in (1.0, 1e-3, 0.37, 7.5, 30.0, 1e3):
            assert f"{_cutoff_residual(dim, length):.2e}" == residual, (dim, length)


@pytest.mark.filterwarnings("error")  # numpy must not warn either
def test_cutoff_energy_domain():
    # the smallest cutoff at scale 0.3 needs 38585 modes
    with pytest.raises(DomainError, match=r"needs more than 2\^15 modes"):
        oracle.cutoff_casimir_energy(3, 1.0, scale=0.3)
    # L^-2 overflows, underflows to 0 or is subnormal
    for length in (1e-300, 1e300, 5e-324, 1e160):
        with pytest.raises(DomainError):
            oracle.cutoff_casimir_energy(3, length, scale=1.0)
    assert math.isfinite(oracle.cutoff_casimir_energy(3, 1e150, scale=1.0))
    # e^(-alpha pi) of the first mode is below the least double
    for dim in (2, 3):
        with pytest.raises(DomainError):
            oracle.cutoff_casimir_energy(dim, 1.0, scale=2e4)


@pytest.mark.filterwarnings("error")
def test_cutoff_energy_raises_where_rounding_swamps_the_constant():
    # At D = 2 scale 1e-3 once missed the constant by 1.4e-4 and scale 1e-10
    # by 1.3e10; at 1e-75 numpy warned, and at 1e-160 a regulated energy
    # divided by zero. At 5e-324 every cutoff rounds to 0.
    for scale in (1e-3, 1e-4, 1e-6, 1e-10, 1e-30, 1e-75, 1e-160, 5e-324):
        with pytest.raises(DomainError, match="swamps the constant"):
            oracle.cutoff_casimir_energy(2, 1.0, scale=scale)


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
    _, prof = _subtracted(4)
    split = oracle.profile_energy_integral(prof)
    assert split.exterior == 0.0
    assert rel_err(split.interior, -PI**2 / 720) < 1e-8
    assert rel_err(split.total, -PI**2 / 720) < 1e-8


def test_profile_energy_cancellation_d6():
    st, prof = _subtracted(6)
    split = oracle.profile_energy_integral(prof)
    want = core.total_energy_per_area(st, Theory(TheoryKind.MAXWELL, EmBC.METALLIC))
    assert rel_err(split.total, want) < 1e-6
    # the z-dependent pieces cancel between interior and exterior
    assert split.exterior != 0.0


def test_profile_energy_reads_d_and_l_from_the_profile():
    for dim, length in ((6, 2.5), (7, 0.4)):
        st, prof = _subtracted(dim, length=length)
        want = core.total_energy_per_area(st, Theory(TheoryKind.MAXWELL, EmBC.METALLIC))
        assert rel_err(oracle.profile_energy_integral(prof).total, want) < 1e-6


def test_profile_energy_sample_doubling_stability():
    _, prof1 = _subtracted(6, n_interior=1025)
    _, prof2 = _subtracted(6, n_interior=2049)
    a = oracle.profile_energy_integral(prof1).total
    b = oracle.profile_energy_integral(prof2).total
    assert rel_err(b, a) < 1e-8


@pytest.mark.filterwarnings("error")
def test_profile_energy_rejects_non_finite_samples():
    # A left-exterior sample at z = -1e300 once raised OverflowError; one at
    # z = -inf once gave total=inf and a NaN t00 nan, and neither makes a
    # Profile any more. A finite t00 whose tail coefficient overflows is the
    # way left for a sample to make the integral infinite.
    _, prof = _subtracted(6)
    first = prof.samples[0]
    huge = dataclasses.replace(first, tensor=dataclasses.replace(first.tensor, t00=1.7e308))
    for bad in (dataclasses.replace(first, z=-1e300), huge):
        with pytest.raises(DomainError):
            oracle.profile_energy_integral(
                dataclasses.replace(prof, samples=(bad, *prof.samples[1:]))
            )
    nan_t00 = dataclasses.replace(first, tensor=dataclasses.replace(first.tensor, t00=math.nan))
    for bad in (dataclasses.replace(first, z=-math.inf), nan_t00):
        with pytest.raises(ValueError):
            dataclasses.replace(prof, samples=(bad, *prof.samples[1:]))


def test_profile_energy_insufficient_samples():
    _, prof = _subtracted(6, n_interior=100)
    with pytest.raises(InsufficientSamplesError):
        oracle.profile_energy_integral(prof)


def test_profile_energy_requires_uniform_grid():
    st = Spacetime(6, 1.0)
    rng = np.random.default_rng(7)
    grid = sorted(float(z) for z in rng.uniform(0.01, 0.99, size=300))
    prof = core.subtracted_profile(st, EmBC.METALLIC, grid)
    with pytest.raises(InsufficientSamplesError):
        oracle.profile_energy_integral(prof)
