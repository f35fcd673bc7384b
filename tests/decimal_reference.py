"""Exact and decimal references for the zeta tests, independent of specfun.

Bernoulli numbers come from fractions by the Akiyama-Tanigawa algorithm
(Kaneko, J. Integer Seq. 3 (2000) 00.2.9), not from specfun's table; pi
and zeta are summed in decimal at the precision of the current context.
"""

import math
from decimal import Decimal, getcontext
from fractions import Fraction


def bernoulli(count):
    # B_0 .. B_(count - 1) as fractions, by the Akiyama-Tanigawa algorithm.
    row, out = [], []
    for m in range(count):
        row.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    return out


def to_decimal(q):
    return Decimal(q.numerator) / q.denominator


def decimal_pi():
    # Machin's formula pi = 16 atan(1/5) - 4 atan(1/239), each by its series.
    eps = Decimal(10) ** -(getcontext().prec + 5)

    def atan_inverse(n):
        total, power, k = Decimal(0), Decimal(1) / n, 0
        while power > eps:
            total += (-1) ** k * power / (2 * k + 1)
            power /= n * n
            k += 1
        return total

    return 16 * atan_inverse(5) - 4 * atan_inverse(239)


# B_0 .. B_60, for decimal_zeta.
_BERNOULLI = bernoulli(61)


def decimal_zeta(s):
    # zeta(s) for a real s > -1, s != 1, an int or a float (taken exactly), by
    # Euler-Maclaurin at n = 100 through B_60: sum_{k<n} k^-s + n^(1-s)/(s-1)
    # + n^-s/2 + sum_j B_2j/(2j)! s (s+1) ... (s+2j-2) n^(1-s-2j), the rising
    # factorial in decimal. The first term left out lies below 1e-85 relative
    # (measured from s = -0.999 to 300).
    s = Decimal(s)
    total = sum(Decimal(k) ** -s for k in range(1, 100))
    power = Decimal(100) ** -s  # n^-s; dividing by powers of 100 is exact
    total += power * 100 / (s - 1) + power / 2
    power /= 100  # n^(1-s-2j) from j = 1 on
    rising = s  # s (s+1) ... (s+2j-2)
    for j in range(1, 31):
        total += to_decimal(_BERNOULLI[2 * j] / math.factorial(2 * j)) * rising * power
        rising *= (s + 2 * j - 1) * (s + 2 * j)
        power /= 10000
    return total
