"""Special-function tests: frozen values, brute-force oracles, properties."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_slab import specfun
from casimir_slab.errors import DomainError

PI = math.pi


def rel_err(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


# ---------------------------------------------------------------- oracles


def gamma_oracle(x):
    """Independent gamma evaluation: Stirling far out, recurrence down.

    Uses a different algorithm (large-argument asymptotics at x+24 with
    ten Bernoulli terms) from the library's Lanczos path.
    """
    shift = 24
    xs = x + shift
    bern = [
        Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
        Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6), Fraction(-3617, 510),
        Fraction(43867, 798), Fraction(-174611, 330),
    ]
    lg = (xs - 0.5) * math.log(xs) - xs + 0.5 * math.log(2 * math.pi)
    for k, b in enumerate(bern, start=1):
        lg += float(b) / ((2 * k) * (2 * k - 1) * xs ** (2 * k - 1))
    prod = 1.0
    for i in range(shift):
        prod *= x + i
    return math.exp(lg) / prod


def zeta_sum_oracle(s, n_terms=2_000_000):
    """Direct partial sum with trapezoid-level tail closure."""
    n = np.arange(1, n_terms, dtype=np.float64)
    return float((n ** (-s)).sum()) + n_terms ** (1.0 - s) / (s - 1.0) + 0.5 * n_terms ** (-s)


def hurwitz_sum_oracle(s, a, n_terms=2_000_000):
    n = np.arange(0, n_terms, dtype=np.float64)
    big = n_terms + a
    return float(((n + a) ** (-s)).sum()) + big ** (1.0 - s) / (s - 1.0) + 0.5 * big ** (-s)


# ------------------------------------------------------------------ gamma


@pytest.mark.parametrize(
    "x,want",
    [
        (5.0, 24.0),
        (0.5, math.sqrt(PI)),
        (3.0, 2.0),
        (1.0, 1.0),
        (7.5, gamma_oracle(7.5)),
    ],
)
def test_gamma_values(x, want):
    assert rel_err(specfun.gamma(x), want) < 1e-12


def test_gamma_accuracy_grid():
    for x in np.arange(0.5, 30.01, 0.173):
        assert rel_err(specfun.gamma(float(x)), gamma_oracle(float(x))) < 1e-12


def test_gamma_large_argument_stirling_branch():
    for x in (31.0, 45.7, 80.0):
        assert rel_err(specfun.gamma(x), gamma_oracle(x)) < 1e-12


def test_gamma_reflection_region():
    # gamma(-3/2) = 4 sqrt(pi) / 3
    assert rel_err(specfun.gamma(-1.5), 4 * math.sqrt(PI) / 3) < 1e-13


@pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -17.0])
def test_gamma_pole_raises(x):
    with pytest.raises(DomainError):
        specfun.gamma(x)


def test_gamma_rejects_nonfinite():
    with pytest.raises(DomainError):
        specfun.gamma(float("inf"))


@given(st.floats(min_value=0.5, max_value=29.0))
@settings(max_examples=200)
def test_gamma_recurrence(x):
    assert rel_err(specfun.gamma(x + 1.0), x * specfun.gamma(x)) < 1e-13


# ------------------------------------------------------------------- zeta


@pytest.mark.parametrize(
    "s,want",
    [
        (4.0, PI**4 / 90),
        (2.0, PI**2 / 6),
        (-3.0, 1.0 / 120.0),
        (6.0, PI**6 / 945),
    ],
)
def test_zeta_values(s, want):
    assert abs(specfun.riemann_zeta(s) - want) < 1e-12


def test_zeta_pole_raises():
    with pytest.raises(DomainError):
        specfun.riemann_zeta(1.0)


def test_zeta_positive_domain_vs_direct_sum():
    for s in (1.5, 2.0, 2.5, 3.0, 4.5, 7.0, 11.2, 18.0, 24.0, 30.0):
        assert abs(specfun.riemann_zeta(s) - zeta_sum_oracle(s)) < 1e-12


def test_zeta_negative_exact_rationals():
    known = {-1.0: -1 / 12, -3.0: 1 / 120, -5.0: -1 / 252, -7.0: 1 / 240, -9.0: -1 / 132}
    for s, want in known.items():
        assert abs(specfun.riemann_zeta(s) - want) < 1e-12


def test_zeta_negative_vs_functional_equation_oracle():
    # Independent continuation: zeta(s) = 2^s pi^(s-1) sin(pi s/2)
    # gamma(1-s) zeta(1-s), with gamma from the test oracle and zeta(1-s)
    # from the direct sum.
    for s in (-0.5, -1.7, -4.3, -6.1, -9.9):
        want = (
            2.0**s
            * PI ** (s - 1.0)
            * math.sin(PI * s / 2.0)
            * gamma_oracle(1.0 - s)
            * zeta_sum_oracle(1.0 - s)
        )
        assert abs(specfun.riemann_zeta(s) - want) < 1e-12


def test_zeta_trivial_zeros_exact():
    for s in (-2.0, -4.0, -6.0, -8.0, -10.0):
        assert specfun.riemann_zeta(s) == 0.0


def test_zeta_reflection_residual_invariant():
    for s in np.arange(1.25, 12.0, 0.5):
        s = float(s)
        lhs = specfun.gamma(s / 2) * PI ** (-s / 2) * specfun.riemann_zeta(s)
        rhs = (
            specfun.gamma((1 - s) / 2)
            * PI ** (-(1 - s) / 2)
            * specfun.riemann_zeta(1 - s)
        )
        assert abs(lhs - rhs) <= 1e-10


# ---------------------------------------------------------------- hurwitz


def test_hurwitz_reduces_to_riemann():
    assert abs(specfun.hurwitz_zeta(4.0, 1.0) - PI**4 / 90) < 1e-12


def test_hurwitz_half_argument():
    # zeta_H(s, 1/2) = (2^s - 1) zeta(s); frozen from the direct sum
    want = 15 * PI**4 / 90
    assert abs(specfun.hurwitz_zeta(4.0, 0.5) - want) < 1e-12
    assert abs(hurwitz_sum_oracle(4.0, 0.5) - want) < 1e-10


def test_hurwitz_shift_identity():
    assert abs(specfun.hurwitz_zeta(4.0, 2.0) - (PI**4 / 90 - 1.0)) < 1e-12


def test_hurwitz_vs_direct_sum_grid():
    for s in (2.0, 3.0, 4.0, 6.5, 12.0, 24.0):
        for a in (1e-3, 0.1, 0.5, 1.0, 2.7, 10.0):
            got = specfun.hurwitz_zeta(s, a)
            want = hurwitz_sum_oracle(s, a)
            # absolute when O(1), relative when the peeled a^-s dominates
            assert abs(got - want) < 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize(
    "s,a",
    # the last three are valid arguments whose leading term a**-s overflows
    [(1.0, 1.0), (0.5, 1.0), (2.0, 0.0), (2.0, -1.0), (2.0, 1e-200), (24.0, 1e-20), (30.0, 1e-12)],
)
def test_hurwitz_domain_errors(s, a):
    with pytest.raises(DomainError):
        specfun.hurwitz_zeta(s, a)


@given(
    st.floats(min_value=1.5, max_value=24.0),
    st.floats(min_value=1e-3, max_value=10.0),
)
@settings(max_examples=200)
def test_hurwitz_telescoping(s, a):
    lhs = specfun.hurwitz_zeta(s, a) - specfun.hurwitz_zeta(s, a + 1.0)
    want = a ** (-s)
    assert abs(lhs - want) <= 1e-12 * max(1.0, abs(specfun.hurwitz_zeta(s, a)))


def _reference_zeta_em(s):
    # specfun._zeta_em before its direct sum learned to stop early.
    n_direct = 20
    acc = 0.0
    for n in range(1, n_direct):
        acc += float(n) ** (-s)
    big_n = float(n_direct)
    acc += 0.5 * big_n ** (-s)
    acc += big_n ** (1.0 - s) / (s - 1.0)
    rising = s
    for k in range(1, 7):
        acc += specfun._EM_COEFF[k - 1] * rising * big_n ** (-s - 2 * k + 1)
        rising = rising * (s + (2 * k - 1)) * (s + 2 * k)
    return acc


def _reference_hurwitz(s, a):
    # specfun._hurwitz before its direct sum learned to stop early.
    neg_s = -s
    acc = 0.0
    shifted = a
    while shifted < 1.0:
        acc += shifted**neg_s
        shifted += 1.0
    n_direct = max(0, 16 - int(shifted))
    for n in range(n_direct):
        acc += (shifted + n) ** neg_s
    x = shifted + n_direct
    acc += x ** (1.0 - s) / (s - 1.0)
    acc += 0.5 * x**neg_s
    rising = s
    for k in range(1, 11):
        term = specfun._EM_COEFF[k - 1] * rising * x ** (neg_s - 2 * k + 1)
        acc += term
        if abs(term) < specfun._ABS_TOL * abs(acc):
            break
        rising = rising * (s + (2 * k - 1)) * (s + 2 * k)
    return acc


def test_early_exit_keeps_every_bit_of_the_zeta_sums():
    rng = random.Random(5)
    for i in range(100_000):
        # integer and non-integer orders; near-plate and ordinary arguments
        s = float(rng.randint(2, 30)) if i % 3 == 0 else rng.uniform(1.01, 30.0)
        a = 10.0 ** rng.uniform(-12.0, 0.0) if i % 2 == 0 else rng.uniform(1.0, 3.0)
        try:
            want = _reference_hurwitz(s, a)
        except OverflowError:
            with pytest.raises(DomainError):
                specfun._hurwitz(s, a)
            continue
        assert specfun._hurwitz(s, a).hex() == want.hex(), (s, a)
    for _ in range(20_000):
        s = rng.uniform(0.0, 30.0)
        if s != 1.0:
            assert specfun._zeta_em(s).hex() == _reference_zeta_em(s).hex(), s


# -------------------------------------------------------------- polygamma


@pytest.mark.parametrize(
    "k,x,want",
    [
        (1, 1.0, PI**2 / 6),
        (3, 1.0, 6 * PI**4 / 90),
        (3, 0.5, 6 * 15 * PI**4 / 90),
    ],
)
def test_polygamma_values(k, x, want):
    assert rel_err(specfun.polygamma(k, x), want) < 1e-12


def test_polygamma_vs_brute_series():
    # psi^(k)(x) = (-1)^(k+1) k! sum_n (x+n)^-(k+1), summed directly
    for k in range(1, 12):
        for x in (0.1, 0.25, 0.5, 1.0, 2.0):
            sign = 1.0 if k % 2 == 1 else -1.0
            want = sign * math.factorial(k) * hurwitz_sum_oracle(k + 1.0, x)
            got = specfun.polygamma(k, x)
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_polygamma_hurwitz_consistency_invariant():
    for k in range(1, 12):
        for x in (0.1, 0.25, 0.5, 1.0, 2.0):
            sign = 1.0 if k % 2 == 1 else -1.0
            want = sign * math.factorial(k) * specfun.hurwitz_zeta(k + 1.0, x)
            assert abs(specfun.polygamma(k, x) - want) <= 1e-10 * max(1.0, abs(want))


@pytest.mark.parametrize("k,x", [(0, 1.0), (1, 0.0), (2, -3.0)])
def test_polygamma_domain_errors(k, x):
    with pytest.raises(DomainError):
        specfun.polygamma(k, x)


# --------------------------------------------------------- cot derivative


def test_cot_derivative_first_order_midpoint():
    assert specfun.cot_derivative(1, PI / 2) == 1.0


def test_cot_derivative_third_order_midpoint():
    # pinned by the image-sum identity: (pi^4/6) * value = pi^4/3
    assert specfun.cot_derivative(3, PI / 2) == 2.0


@pytest.mark.parametrize("order", [1, 2, 3, 4, 7])
def test_cot_derivative_matches_finite_difference(order):
    h = 1e-5
    for theta in (0.7, PI / 2, 2.2):
        if order == 1:
            lower = lambda t: math.cos(t) / math.sin(t)  # noqa: E731
        else:
            lower = lambda t: specfun.cot_derivative(order - 1, t)  # noqa: E731
        fd = -(lower(theta + h) - lower(theta - h)) / (2 * h)
        got = specfun.cot_derivative(order, theta)
        assert abs(got - fd) <= 1e-6 * max(1.0, abs(got))


@given(st.integers(min_value=1, max_value=15), st.floats(min_value=0.05, max_value=0.45))
@settings(max_examples=150)
def test_cot_derivative_parity(order, frac):
    # odd orders are even in c = cot(theta), hence symmetric under
    # theta -> pi - theta; even orders are antisymmetric. Sampled away
    # from theta = pi/2, where even orders cross zero and the property
    # degenerates to 0 == 0 under float rounding.
    theta = PI * frac
    a = specfun.cot_derivative(order, theta)
    b = specfun.cot_derivative(order, PI - theta)
    sign = 1.0 if order % 2 == 1 else -1.0
    assert abs(a - sign * b) <= 1e-9 * max(abs(a), abs(b))


@pytest.mark.parametrize("theta", [0.0, PI, -0.1, 3.2])
def test_cot_derivative_domain(theta):
    with pytest.raises(DomainError):
        specfun.cot_derivative(1, theta)


# ---------------------------------------------------------------- coulomb


def test_coulomb_three_dimensions():
    assert rel_err(specfun.coulomb_potential(3, 1.0), 1 / (4 * PI)) < 1e-13


def test_coulomb_five_dimensions():
    assert rel_err(specfun.coulomb_potential(5, 1.0), 1 / (8 * PI**2)) < 1e-13


@given(st.integers(min_value=3, max_value=20), st.floats(min_value=0.01, max_value=100.0))
@settings(max_examples=150)
def test_coulomb_homogeneity(n, r):
    v1 = specfun.coulomb_potential(n, r)
    for lam in (0.5, 2.0, 10.0):
        v2 = specfun.coulomb_potential(n, lam * r)
        assert rel_err(v2, lam ** (2 - n) * v1) < 1e-12


@pytest.mark.parametrize("n,r", [(2, 1.0), (3, 0.0), (4, -2.0)])
def test_coulomb_domain_errors(n, r):
    with pytest.raises(DomainError):
        specfun.coulomb_potential(n, r)
