"""High-precision real special functions.

Everything downstream (energy densities, stress profiles, fluctuation
records) reduces to the functions in this module: the Hurwitz zeta
function, the Riemann zeta function as its value at a = 1, continued to
negative argument through math.gamma, and repeated cotangent derivatives.

All functions are deterministic pure maps on Python floats; there is no
internal mutable state, so every operation is safe to call concurrently.
Each returns a finite double or raises DomainError.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

from .errors import DomainError, _shown

__all__ = [
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

# (B_2k / (2k)!, 2k - 1, 2k) for k = 1..10: one step of the Hurwitz tail.
_EM_STEPS = tuple((coeff, 2 * k - 1, 2 * k) for k, coeff in enumerate(_EM_COEFF, 1))


def _finite_double(x: float) -> bool:
    # math.isfinite(x), but False, not OverflowError, for an int or a Fraction
    # beyond the doubles; Spacetime checks its length with it too.
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def riemann_zeta(s: float) -> float:
    """Riemann zeta function of a real argument, s != 1.

    The Hurwitz zeta sum at a = 1 for s > -0.01; below, where 1-s keeps
    the digits of s, the reflection formula maps the value to 1-s > 1:

        gamma(s/2) pi^(-s/2) zeta(s) = gamma((1-s)/2) pi^((s-1)/2) zeta(1-s).

    Raises DomainError where |zeta(s)| exceeds the largest double.
    """
    if not _finite_double(s):
        raise DomainError("riemann_zeta: argument must be finite")
    if s == 1.0:
        raise DomainError("riemann_zeta: pole at s=1")
    if s <= -2.0 and s % 2.0 == 0.0:
        return 0.0  # trivial zeros; the reflection route would hit a gamma pole
    t = s if s > -0.01 else 1.0 - s
    zeta = _hurwitz_many(t, (1.0,), _EM_TAILS.get(t) or _em_tail(t))[0]
    if t == s:
        return zeta
    try:
        value = math.pi ** (s - 0.5) * math.gamma(t / 2.0) / math.gamma(s / 2.0) * zeta
    except (OverflowError, ZeroDivisionError):
        # Below about s = -342 a gamma factor leaves the doubles, and so does
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
    if not (_finite_double(s) and _finite_double(a)):
        raise DomainError("hurwitz_zeta: arguments must be finite")
    if s <= 1.0:
        raise DomainError(f"hurwitz_zeta: requires s > 1, got s={s}")
    if a <= 0.0:
        raise DomainError(f"hurwitz_zeta: requires a > 0, got a={a}")
    # One argument reads the tail once, so it is made only as far as it is read.
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
    # hurwitz_zeta(s, a) for each a, for callers that hold s > 1 and 0 < a < inf,
    # and for riemann_zeta's a = 1 with s > -0.01, s != 1.
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
        # (For -0.01 < s < 0 they grow, but stay near 1 and never end it.)
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
        raise DomainError(f"cot_derivative: order must be an integer in [1, 163], got {_shown(order)}")
    if not 0.0 < theta < math.pi:
        raise DomainError(f"cot_derivative: theta must lie in (0, pi), got {_shown(theta)}")
    coeffs = [0, 1]  # cot itself, as a polynomial in c
    for _ in range(int(order)):
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
