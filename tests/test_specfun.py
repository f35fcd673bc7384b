"""Special-function tests: frozen values, brute-force oracles, properties."""

import math
import random
import re
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from casimir_slab import core, specfun
from casimir_slab.errors import DomainError
from decimal_reference import decimal_zeta

PI = math.pi


def rel_err(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


# ---------------------------------------------------------------- oracles


def gamma_oracle(x):
    """Independent gamma evaluation: Stirling far out, recurrence down.

    Uses large-argument asymptotics at x+24 with ten Bernoulli terms, not
    the math.gamma that riemann_zeta's reflection calls.
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
        lhs = math.gamma(s / 2) * PI ** (-s / 2) * specfun.riemann_zeta(s)
        rhs = (
            math.gamma((1 - s) / 2)
            * PI ** (-(1 - s) / 2)
            * specfun.riemann_zeta(1 - s)
        )
        assert abs(lhs - rhs) <= 1e-10


def _zeta_log_gamma_route(s):
    # zeta(s) = sin(pi s/2) exp(s log 2 + (s-1) log pi + lgamma(1-s)) zeta(1-s):
    # one gamma, taken in logs, where riemann_zeta divides two math.gamma values.
    sine = math.sin(PI * s / 2.0)
    log_size = s * math.log(2.0) + (s - 1.0) * math.log(PI) + math.lgamma(1.0 - s)
    log_size += math.log(abs(sine))
    return math.copysign(math.exp(log_size), sine) * specfun.riemann_zeta(1.0 - s)


# Across the reflection branch: gamma(1-s) alone leaves the doubles below
# s = -170.6, but the two half-argument gammas do not, and |zeta(s)| itself
# fits a double down to about s = -260.17.
@pytest.mark.parametrize("s", [-0.5, -13.3, -50.5, -101.25, -170.6, -171.5, -250.25, -260.16])
def test_zeta_reflection_vs_log_gamma_route(s):
    assert rel_err(specfun.riemann_zeta(s), _zeta_log_gamma_route(s)) < 1e-12


def test_zeta_leaves_the_doubles_near_s_minus_260():
    assert 1e307 < abs(specfun.riemann_zeta(-260.169)) < math.inf
    with pytest.raises(DomainError):
        specfun.riemann_zeta(-260.171)


@given(st.floats(min_value=-260.0, max_value=-0.01))
@settings(max_examples=300, deadline=None)
def test_zeta_sign_alternates_between_trivial_zeros(s):
    # Below 0 only gamma(s/2) changes sign, once at each trivial zero -2k:
    # zeta(s) < 0 on (-4k-2, -4k) and > 0 on (-4k-4, -4k-2).
    value = specfun.riemann_zeta(s)
    if s == math.floor(s) and int(s) % 2 == 0:
        assert value == 0.0
    else:
        assert math.isfinite(value)
        assert (value > 0.0) == (math.ceil(-s / 2.0) % 2 == 0), (s, value)


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
                specfun.hurwitz_zeta(s, a)
            continue
        assert specfun.hurwitz_zeta(s, a).hex() == want.hex(), (s, a)
    for _ in range(20_000):
        # riemann_zeta sums zeta(s) = hurwitz_zeta(s, 1) in the same loop
        s = rng.uniform(-0.01, 30.0)
        if s not in (-0.01, 1.0):
            assert specfun.riemann_zeta(s).hex() == _reference_hurwitz(s, 1.0).hex(), s


# ------------------------------------------- polygamma through hurwitz_zeta


def _polygamma(k, x):
    # psi^(k)(x) = (-1)^(k+1) k! zeta_H(k+1, x)
    return (1.0 if k % 2 == 1 else -1.0) * math.factorial(k) * specfun.hurwitz_zeta(k + 1.0, x)


@pytest.mark.parametrize(
    "k,x,want",
    [
        (1, 1.0, PI**2 / 6),
        (3, 1.0, 6 * PI**4 / 90),
        (3, 0.5, 6 * 15 * PI**4 / 90),
    ],
)
def test_polygamma_values(k, x, want):
    assert rel_err(_polygamma(k, x), want) < 1e-12


def test_polygamma_vs_brute_series():
    # psi^(k)(x) = (-1)^(k+1) k! sum_n (x+n)^-(k+1), summed directly
    for k in range(1, 12):
        for x in (0.1, 0.25, 0.5, 1.0, 2.0):
            sign = 1.0 if k % 2 == 1 else -1.0
            want = sign * math.factorial(k) * hurwitz_sum_oracle(k + 1.0, x)
            got = _polygamma(k, x)
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


# k = 0 is the pole s = 1 of zeta_H; x <= 0 leaves its domain a > 0
@pytest.mark.parametrize("k,x", [(0, 1.0), (1, 0.0), (2, -3.0)])
def test_polygamma_domain_errors(k, x):
    with pytest.raises(DomainError):
        _polygamma(k, x)


# ------------------------------------------------------ hurwitz, fused loop


# specfun._hurwitz as it was before the grid loop took its place; the loop
# must reproduce it bit for bit.
def _reference_scalar_hurwitz(s: float, a: float) -> float:
    # hurwitz_zeta for callers that already hold s > 1 and 0 < a < inf.
    neg_s = -s
    acc = 0.0
    shifted = a
    while shifted < 1.0:
        try:
            acc += shifted**neg_s
        except OverflowError:
            raise DomainError(f"hurwitz_zeta: a**-s overflows a double at s={s}, a={a}") from None
        shifted += 1.0
    # Direct terms until the tail expansion point is comfortably large. The
    # terms decrease and rounding is monotonic, so the first one that leaves
    # the sum unchanged ends the loop without changing a bit of the result.
    n_direct = max(0, 16 - int(shifted))
    for n in range(n_direct):
        total = acc + (shifted + n) ** neg_s
        if total == acc:
            break
        acc = total
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


def _reference_hexes(s, args):
    out = []
    for a in args:
        try:
            out.append(_reference_scalar_hurwitz(s, a).hex())
        except DomainError:
            out.append("DomainError")
    return out


def _loop_hexes(s, args):
    try:
        return [v.hex() for v in specfun._hurwitz_many(s, args)]
    except DomainError:
        return ["DomainError"]


def test_fused_loop_keeps_every_bit_on_midpoint_grids():
    for dim in range(2, 25):
        for samples in (7, 64, 2001):
            xs = [(i + 0.5) / samples for i in range(samples)]
            for family in ([*xs, *(1.0 - x for x in xs)], [*(1.0 + x for x in xs), *(2.0 - x for x in xs)]):
                assert _loop_hexes(float(dim), family) == _reference_hexes(float(dim), family), dim


def test_fused_loop_keeps_every_bit_of_random_arguments():
    rng = random.Random(6)
    overflows = 0
    for i in range(100_000):
        if i % 4 == 0:
            s = float(rng.randint(2, 24))  # the orders the closed forms use
        elif i % 4 == 3:
            s = 10.0 ** rng.uniform(0.01, 12.0)
        else:
            s = rng.uniform(1.01, 30.0)
        a = 10.0 ** rng.uniform(-12.0, 0.0) if i % 2 else rng.uniform(1.0, 40.0)
        want = _reference_hexes(s, [a])
        overflows += want == ["DomainError"]
        assert _loop_hexes(s, [a]) == want, (s, a)
        if want != ["DomainError"]:
            assert specfun.hurwitz_zeta(s, a).hex() == want[0], (s, a)
    assert overflows > 1000  # the a**-s overflow cases are exercised
    # several arguments at once, at orders inside and outside the per-order table
    for s in (3.0, 7.0, 24.0, 2.5, 13.7, 29.0):
        args = [10.0 ** rng.uniform(-6.0, 1.5) for _ in range(500)]
        assert _loop_hexes(s, args) == _reference_hexes(s, args), s


# --------------------------------------------------------- error contract


@pytest.mark.parametrize(
    "call,want",
    [
        (lambda: specfun.hurwitz_zeta(1e20, 2.0), 0.0),  # 2**-1e20 underflows
        (lambda: specfun.riemann_zeta(1e300), 1.0),
        (lambda: specfun.riemann_zeta(-1e-300), -0.5),
        (lambda: specfun.riemann_zeta(-300.5), DomainError),  # |zeta| ~ 1e375
        # math.isfinite raises OverflowError on an int beyond the doubles
        (lambda: specfun.riemann_zeta(10**400), DomainError),
        (lambda: specfun.hurwitz_zeta(2.0, 10**400), DomainError),
        (lambda: specfun.riemann_zeta(-10**400), DomainError),
        (lambda: specfun.hurwitz_zeta(10**400, 2.0), DomainError),
        (lambda: specfun.hurwitz_zeta(2.0, -10**400), DomainError),
        (lambda: specfun.cot_derivative(3, 10**400), DomainError),
        (lambda: specfun.cot_derivative(200, 1e-3), DomainError),
        (lambda: specfun.cot_derivative(40, 1e-9), DomainError),
    ],
    ids=["hurwitz-huge-s", "zeta-huge-s", "zeta-tiny-negative-s", "zeta-overflow",
         "zeta-huge-int-s", "hurwitz-huge-int-a", "zeta-huge-negative-int-s",
         "hurwitz-huge-int-s", "hurwitz-huge-negative-int-a", "cot-huge-int-theta",
         "cot-order-200", "cot-overflow"],
)
def test_error_contract_cases(call, want):
    if want is DomainError:
        with pytest.raises(DomainError):
            call()
    else:
        assert call() == want


def test_riemann_zeta_overflow_names_s():
    # below about s = -341 a gamma factor leaves the doubles; the message still names s
    for s in (-300.5, -341.5, -342.5, -1000.5):
        message = f"riemann_zeta: |zeta(s)| at s={s} exceeds the largest double"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            specfun.riemann_zeta(s)


def test_riemann_zeta_near_zero_from_below():
    # zeta(s) = -1/2 - s log(2 pi)/2 + O(s^2); the reflection route lost the digits of s here
    for s in (-1e-300, -1e-12, -1e-9):
        assert abs(specfun.riemann_zeta(s) - (-0.5 - 0.5 * s * math.log(2 * PI))) < 1e-14


def test_zeta_at_the_closed_form_orders_is_within_two_ulps():
    # core's table holds the double nearest each zeta(D); riemann_zeta may
    # differ from it by rounding in the sum, never by more than 2 ulps.
    for dim, (_, _, zeta) in enumerate(core._AMPLITUDE_TABLE, 2):
        assert abs(specfun.riemann_zeta(float(dim)) - zeta) <= 2 * math.ulp(zeta), dim


@given(st.floats(min_value=-0.01, max_value=60.0, exclude_min=True))
@example(-1.0453073333474702e-11)  # the worst of 3e5 draws near 0: 2.33e-14
@settings(max_examples=150, deadline=None)
def test_riemann_zeta_against_the_decimal_reference(s):
    # Near s = 0 the sum cancels to -1/2 from terms of size 16, each rounding of
    # which costs up to 7e-15 of the result; from s = 3 on, the error measured
    # against mpmath stays below 1.2e-15.
    assume(s != 1.0)
    with localcontext() as ctx:
        ctx.prec = 40
        want = decimal_zeta(s)
    assert abs(Decimal(specfun.riemann_zeta(s)) - want) <= abs(want) * Decimal("3e-14"), s


_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)


@given(
    st.sampled_from(["riemann_zeta", "hurwitz_zeta", "cot_derivative"]),
    _ANY_FLOAT,
    _ANY_FLOAT | st.floats(min_value=1e-12, max_value=50.0),
    st.integers(min_value=-2, max_value=400),
)
@settings(max_examples=600, deadline=None)
def test_public_functions_return_finite_or_raise_domain_error(name, x, y, order):
    calls = {
        "riemann_zeta": lambda: specfun.riemann_zeta(x),
        "hurwitz_zeta": lambda: specfun.hurwitz_zeta(abs(x) + 1.0, y),
        "cot_derivative": lambda: specfun.cot_derivative(order, y),
    }
    try:
        value = calls[name]()
    except DomainError:
        return
    assert isinstance(value, float) and math.isfinite(value), (name, x, y, order, value)


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


def test_cot_derivative_takes_an_integral_float_order():
    # The order check accepts 3.0, which once failed in range() with TypeError.
    assert specfun.cot_derivative(3.0, 0.7) == specfun.cot_derivative(3, 0.7)


@pytest.mark.parametrize("theta", [0.0, PI, -0.1, 3.2])
def test_cot_derivative_domain(theta):
    with pytest.raises(DomainError):
        specfun.cot_derivative(1, theta)
