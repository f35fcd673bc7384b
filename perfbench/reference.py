"""Independent reference values for the correctness gate.

Nothing here calls casimir_slab. Every profile function is a direct image
sum in NumPy, zeta(D) is a directly summed series, and the plate scale
uses stdlib `math.gamma`. Each reference returns (value, magnitude) per
output field, where magnitude is the sum of the absolute sizes of the
terms in the closed form, so a check stays meaningful where terms cancel.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

TOLERANCE = 1e-9  # verify's f-profile tolerance
_TERMS = 20000  # direct terms; the midpoint-rule tail error is O(N^-(s+1))


@lru_cache(maxsize=None)
def power_sum(s: float, a: float) -> float:
    """sum_{n>=0} (n + a)^-s for s > 1, a > 0: direct sum plus integral tail."""
    n = np.arange(_TERMS, dtype=np.float64)
    direct = float(np.sum(((n + a) ** -s)[::-1]))
    return direct + (_TERMS - 0.5 + a) ** (1.0 - s) / (s - 1.0)


def image_sum(dim: int, x: float) -> float:
    """f(x) = sum over all integers j of |j + x|^-D, 0 < x < 1."""
    return power_sum(float(dim), x) + power_sum(float(dim), 1.0 - x)


def image_sum_subtracted(dim: int, x: float) -> float:
    """f(x) without the two nearest images j = 0 and j = -1, 0 <= x <= 1."""
    return power_sum(float(dim), 1.0 + x) + power_sum(float(dim), 2.0 - x)


def zeta(s: float) -> float:
    return power_sum(float(s), 1.0)


def plate_scale(dim: int, length: float) -> float:
    return math.gamma(dim / 2.0) / ((4.0 * math.pi) ** (dim / 2.0) * length**dim)


def _sign(bc: str) -> float:
    return 1.0 if bc in ("dirichlet", "metallic") else -1.0


def _tensor(dim: int, t00: tuple[float, float], tzz: tuple[float, float]) -> dict:
    return {
        "t00": t00,
        "tzz": tzz,
        "t_transverse": (-t00[0], t00[1]),
        "trace": ((dim - 1) * t00[0] - tzz[0], (dim - 1) * t00[1] + tzz[1]),
    }


def e0(dim: int, length: float) -> float:
    return -plate_scale(dim, length) * zeta(dim)


def em_stress(dim: int, length: float, bc: str, z: float) -> dict:
    a, zt = plate_scale(dim, length), zeta(dim)
    tzz = (dim - 2) * (dim - 1) * e0(dim, length)
    coef = dim / 2.0 - 2.0
    f = image_sum(dim, z / length) if coef else 0.0
    t00 = -(dim - 2) * a * (zt + _sign(bc) * coef * f)
    return _tensor(dim, (t00, (dim - 2) * a * (zt + abs(coef) * f)), (tzz, abs(tzz)))


def scalar_stress(dim: int, length: float, bc: str, z: float, improved: bool) -> dict:
    a, zt = plate_scale(dim, length), zeta(dim)
    base = e0(dim, length)
    tzz = (dim - 1) * base
    if improved:
        return _tensor(dim, (base, abs(base)), (tzz, abs(tzz)))
    coef = dim / 2.0 - 1.0
    f = image_sum(dim, z / length) if coef else 0.0
    t00 = -a * (zt + _sign(bc) * coef * f)
    return _tensor(dim, (t00, a * (zt + abs(coef) * f)), (tzz, abs(tzz)))


def em_fluctuations(dim: int, length: float, bc: str, z: float) -> dict:
    a, zt, s = plate_scale(dim, length), zeta(dim), _sign(bc)
    f = image_sum(dim, z / length)
    ez2 = (dim - 2) * a * (zt + s * 0.5 * f)
    ez2_mag = (dim - 2) * a * (zt + 0.5 * f)
    ei2 = -2.0 * a * (zt - s * 0.5 * f)
    ei2_mag = 2.0 * a * (zt + 0.5 * f)
    bij2 = (0.0, 0.0) if dim == 3 else (-ei2, ei2_mag)
    return {"ez2": (ez2, ez2_mag), "ei2": (ei2, ei2_mag), "biz2": (-ez2, ez2_mag), "bij2": bij2}


def subtracted_stress(dim: int, length: float, bc: str, z: float) -> dict:
    a, s = plate_scale(dim, length), _sign(bc)
    coef = dim / 2.0 - 2.0
    prefac = (dim - 2) * a
    if z < 0.0 or z > length:
        ratio = length / (length - z) if z < 0.0 else length / z
        term = coef * ratio**dim
        return _tensor(dim, (prefac * s * term, prefac * abs(term)), (0.0, 0.0))
    zt = zeta(dim)
    ft = image_sum_subtracted(dim, z / length)
    tzz = (dim - 2) * (dim - 1) * e0(dim, length)
    t00 = -prefac * (zt + s * coef * ft)
    return _tensor(dim, (t00, prefac * (zt + abs(coef) * ft)), (tzz, abs(tzz)))


def pressure(dim: int, length: float, theory: str, bc: str) -> dict:
    base = e0(dim, length)
    value = (dim - 2) * (dim - 1) * base if theory == "maxwell" else (dim - 1) * base
    return {"value": (value, abs(value))}


def f_profile(dim: int, length: float, x: float) -> dict:
    value = image_sum(dim, x)
    return {"value": (value, value)}


def hurwitz_zeta(s: float, a: float) -> dict:
    value = power_sum(s, a)
    return {"value": (value, value)}


def riemann_zeta(s: float) -> dict:
    value = zeta(s)
    return {"value": (value, value)}


def mismatch(got: float, want: tuple[float, float], tol: float = TOLERANCE) -> bool:
    """True when `got` is off by more than tol relative to the term magnitude."""
    value, magnitude = want
    if not math.isfinite(got):
        return True
    return abs(got - value) > tol * magnitude
