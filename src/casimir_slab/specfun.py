"""High-precision real special functions.

Everything downstream (energy densities, stress profiles, fluctuation
records) reduces to the functions in this module: the gamma function,
the Riemann zeta function including its continuation to negative
argument, the Hurwitz zeta function and repeated cotangent derivatives.

All functions are deterministic pure maps on Python floats; there is no
internal mutable state, so every operation is safe to call concurrently.
Each returns a finite double or raises DomainError.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

from .errors import DomainError

__all__ = [
    "gamma",
    "riemann_zeta",
    "hurwitz_zeta",
    "cot_derivative",
]


# The Hurwitz Euler-Maclaurin tail stops at the first term below
# _ABS_TOL times the running sum.
_ABS_TOL = 1e-15

# Exact Bernoulli numbers B_2 .. B_20 as (numerator, denominator). The
# coefficients below divide one exact integer by another, which Python
# rounds correctly, so they are reproducible to the last bit.
_BERNOULLI = (
    (1, 6),
    (-1, 30),
    (1, 42),
    (-1, 30),
    (5, 66),
    (-691, 2730),
    (7, 6),
    (-3617, 510),
    (43867, 798),
    (-174611, 330),
)

# B_2k / (2k)! for k = 1..10, as floats.
_EM_COEFF = tuple(
    num / (den * math.factorial(2 * k)) for k, (num, den) in enumerate(_BERNOULLI, 1)
)

# B_2k / (2k (2k-1)) for k = 1..6: Stirling-series correction terms.
_STIRLING_COEFF = tuple(
    num / (den * 2 * k * (2 * k - 1)) for k, (num, den) in enumerate(_BERNOULLI[:6], 1)
)

# (B_2k / (2k)!, 2k - 1, 2k) for k = 1..10: one step of the Hurwitz tail.
_EM_STEPS = tuple((coeff, 2 * k - 1, 2 * k) for k, coeff in enumerate(_EM_COEFF, 1))

# The steps k = 1..6, through B_12, of the Riemann zeta tail.
_ZETA_STEPS = _EM_STEPS[:6]

# Lanczos approximation, g = 607/128, 15 terms (Numerical Recipes 3rd ed.).
_LANCZOS_C0 = 0.999999999999997092
_LANCZOS = (
    57.1562356658629235,
    -59.5979603554754912,
    14.1360979747417471,
    -0.491913816097620199,
    0.339946499848118887e-4,
    0.465236289270485756e-4,
    -0.983744753048795646e-4,
    0.158088703224912494e-3,
    -0.210264441724104883e-3,
    0.217439618115212643e-3,
    -0.164318106536763890e-3,
    0.844182239838527433e-4,
    -0.261908384015814087e-4,
    0.368991826595316234e-5,
)

_SQRT_TWO_PI = 2.5066282746310005
_LANCZOS_G_PLUS_HALF = 607.0 / 128.0 + 0.5


def _ln_gamma_lanczos(x: float) -> float:
    # Valid for x > 0; near machine precision for moderate arguments.
    tmp = x + _LANCZOS_G_PLUS_HALF
    tmp = (x + 0.5) * math.log(tmp) - tmp
    ser = _LANCZOS_C0
    y = x
    for c in _LANCZOS:
        y += 1.0
        ser += c / y
    return tmp + math.log(_SQRT_TWO_PI * ser / x)


def _ln_gamma_stirling(x: float) -> float:
    # Asymptotic series with six correction terms; used for x > 30 where
    # it is already far below double rounding.
    acc = (x - 0.5) * math.log(x) - x + 0.5 * math.log(2.0 * math.pi)
    xp = x
    x2 = x * x
    for c in _STIRLING_COEFF:
        acc += c / xp
        xp *= x2
    return acc


def gamma(x: float) -> float:
    """Gamma function of a real argument.

    Uses a 15-term Lanczos approximation for 0.5 <= x <= 30, the
    Stirling series beyond, and the reflection identity
    gamma(x) gamma(1-x) = pi / sin(pi x) below 0.5.

    Raises DomainError at the poles x = 0, -1, -2, ..., where |gamma(x)|
    exceeds the largest double, and below about -170.6, where gamma(1-x)
    does (there |gamma(x)| is below the normal range of doubles).
    """
    if not math.isfinite(x):
        raise DomainError("gamma: argument must be finite")
    if x <= 0.0 and x == math.floor(x):
        raise DomainError(f"gamma: pole at non-positive integer x={x}")
    y = 1.0 - x if x < 0.5 else x
    try:
        value = math.exp(_ln_gamma_lanczos(y) if y <= 30.0 else _ln_gamma_stirling(y))
        if x < 0.5:
            value = math.pi / (math.sin(math.pi * x) * value)
    except OverflowError:
        value = math.inf
    if not -math.inf < value < math.inf:
        raise DomainError(f"gamma: |gamma(x)| at x={x} is outside the range of doubles")
    return value


# The direct terms of _zeta_em, 1 .. 19, as floats: float(n) ** -s and n ** -s
# convert the same small integer exactly, so the loop need not convert it.
_ZETA_BASES = tuple(map(float, range(1, 20)))


def _zeta_em(s: float) -> float:
    # Euler-Maclaurin continuation of sum n^-s: 19 direct terms, then the
    # tail at N = 20 through the B_12 term. Valid (far beyond the accuracy
    # target) for s > -11, s != 1.
    neg_s = -s
    acc = 0.0
    for n in _ZETA_BASES:
        # The terms do not grow for s >= 0, and rounding is monotonic: once
        # one leaves the sum unchanged, none of the later ones can change it.
        total = acc + n**neg_s
        if total == acc:
            break
        acc = total
    big_n = 20.0
    acc += 0.5 * big_n**neg_s
    acc += big_n ** (1.0 - s) / (s - 1.0)
    # rising = s (s+1) ... (s+2k-2), the rising factorial of length 2k-1.
    rising = s
    for coeff, odd, even in _ZETA_STEPS:
        acc += coeff * rising * big_n ** (neg_s - even + 1)
        rising = rising * (s + odd) * (s + even)
        if rising == math.inf:
            break  # s is so large that every later power of big_n is 0
    return acc


def riemann_zeta(s: float) -> float:
    """Riemann zeta function of a real argument, s != 1.

    Direct Euler-Maclaurin summation for s > -0.01; below, where 1-s keeps
    the digits of s, the reflection formula maps the value to 1-s > 1:

        gamma(s/2) pi^(-s/2) zeta(s) = gamma((1-s)/2) pi^((s-1)/2) zeta(1-s).

    Raises DomainError where |zeta(s)| exceeds the largest double.
    """
    if not math.isfinite(s):
        raise DomainError("riemann_zeta: argument must be finite")
    if s == 1.0:
        raise DomainError("riemann_zeta: pole at s=1")
    if s > -0.01:
        return _zeta_em(s)
    if s == math.floor(s) and int(s) % 2 == 0:
        return 0.0  # trivial zeros; the reflection route would hit a gamma pole
    try:
        value = math.pi ** (s - 0.5) * gamma((1.0 - s) / 2.0) / gamma(s / 2.0) * _zeta_em(1.0 - s)
    except DomainError:
        # Below about s = -341 a gamma factor leaves the doubles, and so does
        # |zeta(s)|; the poles of gamma(s/2) are the trivial zeros handled above.
        value = math.inf
    if not -math.inf < value < math.inf:
        raise DomainError(f"riemann_zeta: |zeta(s)| at s={s} exceeds the largest double")
    return value


def hurwitz_zeta(s: float, a: float) -> float:
    """Hurwitz zeta function sum_{n>=0} (n+a)^-s for s > 1, a > 0.

    For a < 1 the leading a^-s term is peeled off (this keeps the
    near-plate evaluations exact in the dominant term), then a short
    direct sum plus an Euler-Maclaurin tail with Bernoulli numbers
    through B_20 finishes the job.

    Raises DomainError outside that domain, and when the leading term
    a^-s overflows a double (a tiny a, as in hurwitz_zeta(2, 1e-200)).
    """
    if not (math.isfinite(s) and math.isfinite(a)):
        raise DomainError("hurwitz_zeta: arguments must be finite")
    if s <= 1.0:
        raise DomainError(f"hurwitz_zeta: requires s > 1, got s={s}")
    if a <= 0.0:
        raise DomainError(f"hurwitz_zeta: requires a > 0, got a={a}")
    return _hurwitz(s, a)


def _hurwitz(s: float, a: float) -> float:
    # hurwitz_zeta for callers that already hold s > 1 and 0 < a < inf. One
    # argument reads the tail once, so it is made only as far as it is read.
    return _hurwitz_many(s, (a,), _EM_TAILS.get(s) or _em_tail(s))[0]


def _em_tail(s: float) -> Iterator[tuple[float, float]]:
    # The Euler-Maclaurin tail at order s as pairs (B_2k/(2k)! s (s+1) ... (s+2k-2),
    # -s-2k+1), k = 1..10: c * rising * x**e rounds c * rising first, so c_k x**e keeps
    # every bit. It ends where the rising factorial overflows (x**e is 0 there).
    neg_s = -s
    rising = s
    for coeff, odd, even in _EM_STEPS:
        yield coeff * rising, neg_s - even + 1
        rising = rising * (s + odd) * (s + even)
        if rising == math.inf:
            return


# The tails of the orders the slab closed forms use, D = 2..24.
_EM_TAILS = {float(s): list(_em_tail(float(s))) for s in range(2, 25)}

# _DIRECT_OFFSETS[n] = (0.0, 1.0, ..., n - 1.0), the offsets of n direct terms.
# shifted + 1.0 rounds exactly as shifted + 1 (the int converts exactly), so
# iterating over floats keeps every bit and saves a conversion per term.
_DIRECT_OFFSETS = tuple(tuple(map(float, range(n))) for n in range(16))


def _hurwitz_many(
    s: float, args: Iterable[float], tail: Iterable[tuple[float, float]] | None = None
) -> list[float]:
    # hurwitz_zeta(s, a) for each a, for callers that hold s > 1 and 0 < a < inf.
    neg_s = -s
    one_minus_s = 1.0 - s
    s_minus_one = s - 1.0
    if tail is None:
        tail = _EM_TAILS.get(s) or list(_em_tail(s))
    tol = _ABS_TOL
    out = []
    for a in args:
        acc = 0.0
        shifted = a
        if a < 1.0:  # peel a^-s off; a + 1 >= 1
            try:
                acc = a**neg_s
            except OverflowError:
                raise DomainError(f"hurwitz_zeta: a**-s overflows a double at s={s}, a={a}") from None
            shifted = a + 1.0
        # Direct terms until the tail expansion point is comfortably large. The
        # terms decrease and rounding is monotonic, so the first one that leaves
        # the sum unchanged ends the loop without changing a bit of the result.
        n_direct = 16 - int(shifted) if shifted < 16.0 else 0
        for offset in _DIRECT_OFFSETS[n_direct]:
            total = acc + (shifted + offset) ** neg_s
            if total == acc:
                break
            acc = total
        x = shifted + n_direct
        acc += x**one_minus_s / s_minus_one
        acc += 0.5 * x**neg_s
        for coeff, power in tail:
            term = coeff * x**power
            acc += term
            # The same test as abs(term) < tol * abs(acc) for every acc, the
            # negative ones included: lim is never negative, and for lim >= 0
            # (or NaN) -lim < t < lim holds exactly when abs(t) < lim does.
            lim = tol * abs(acc)
            if -lim < term < lim:
                break
        out.append(acc)
    return out


def cot_derivative(order: int, theta: float) -> float:
    """(-d/dtheta)^order of cot(theta) for theta strictly inside (0, pi).

    Each derivative maps a polynomial P(c) in c = cot(theta) to
    P'(c) (1 + c^2), so the coefficients stay exact integers; the final
    polynomial is evaluated at c by Horner's rule. Since the surviving
    coefficients are all non-negative and the polynomial has fixed
    parity, the evaluation involves no cancellation.

    Raises DomainError for orders above 163 (a coefficient exceeds the
    largest double) and where the value overflows a double.
    """
    if not 1 <= order <= 163 or order != int(order):
        raise DomainError(f"cot_derivative: order must be an integer in [1, 163], got {order}")
    if not 0.0 < theta < math.pi:
        raise DomainError(f"cot_derivative: theta must lie in (0, pi), got {theta}")
    coeffs = [0, 1]  # cot itself, as a polynomial in c
    for _ in range(order):
        deriv = [i * coeffs[i] for i in range(1, len(coeffs))]
        nxt = [0] * (len(deriv) + 2)
        for i, d in enumerate(deriv):
            nxt[i] += d
            nxt[i + 2] += d
        coeffs = nxt
    c = math.cos(theta) / math.sin(theta)
    acc = 0.0
    for coef in reversed(coeffs):
        acc = acc * c + coef
    if not -math.inf < acc < math.inf:
        raise DomainError(f"cot_derivative: order {order} at theta={theta} overflows a double")
    return acc
