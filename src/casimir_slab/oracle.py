"""Independent brute-force evaluators used to validate the closed forms.

Nothing in this module calls the closed-form library functions it is
meant to check: Green functions are summed mode by mode, profile
functions are summed image by image, and the total energy is recovered
from an exponentially regulated mode sum followed by removal of the
divergent regulator powers. Agreement between these evaluators and the
analytic expressions is the evidence the rest of the package rests on.

All sums are evaluated in fixed order over preallocated arrays, so
results are reproducible bit for bit from run to run.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .core import _INTERIOR, _LEFT_EXTERIOR, _RIGHT_EXTERIOR, Profile, ScalarBC
from .errors import DomainError, IllConditionedFitError, InsufficientSamplesError

__all__ = [
    "SeriesBudget",
    "CutoffSchedule",
    "default_cutoff_schedule",
    "green_closed",
    "green_mode_sum",
    "image_profile_sum",
    "cutoff_casimir_energy",
    "profile_energy_integral",
    "ProfileEnergy",
]


@dataclass(frozen=True)
class SeriesBudget:
    """Truncation budgets for the brute-force sums."""

    max_images: int = 10**6
    max_modes: int = 10**4

    def __post_init__(self) -> None:
        if self.max_images < 10**3:
            raise ValueError("max_images must be at least 10^3")
        if self.max_modes < 10**3:
            raise ValueError("max_modes must be at least 10^3")


@dataclass(frozen=True)
class CutoffSchedule:
    """Exponential-regulator values, in units of the plate gap L.

    alphas: finite, positive and strictly decreasing; they must span at
    least a decade for the fit to be well conditioned.
    """

    alphas: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.alphas) < 4:
            raise ValueError("need at least 4 cutoff values")
        if not all(0.0 < a < math.inf for a in self.alphas):
            raise ValueError("cutoff values must be positive and finite")
        if any(b >= a for a, b in zip(self.alphas, self.alphas[1:])):
            raise ValueError("cutoff values must be strictly decreasing")


def default_cutoff_schedule(*, scale: float = 1.0) -> CutoffSchedule:
    """Eight regulator values from 0.014 L down by factors of sqrt(2).

    The range [0.0012, 0.014] (times `scale`) keeps the residual
    curvature of the regulated sum well below the extraction tolerance
    while spanning comfortably more than a decade, with enough headroom
    that rescaling the whole schedule by 2 moves the answer by well
    under a part in 500.
    """
    return CutoffSchedule(alphas=tuple(scale * 0.014 * 2.0 ** (-k / 2.0) for k in range(8)))


def _check_green(name: str, kbar: float, z: float, zp: float, L: float) -> None:
    if not (kbar > 0.0 and L > 0.0 and kbar * L < math.inf):
        raise DomainError(f"{name}: requires kbar > 0, L > 0 and a finite kbar L")
    if not (0.0 <= z <= L and 0.0 <= zp <= L):
        raise DomainError(f"{name}: z and zp must lie in [0, L]")


def green_closed(kbar: float, z: float, zp: float, L: float) -> float:
    """Dirichlet slab Green function of (-d^2/dz^2 + k^2) in closed form.

    sinh(k z_<) sinh(k (L - z_>)) / (k sinh(k L)). For k L > 700 the
    hyperbolics are rewritten with the common exponential factored out
    so the evaluation never overflows.
    """
    _check_green("green_closed", kbar, z, zp, L)
    lo, hi = (z, zp) if z <= zp else (zp, z)
    a = kbar * lo
    b = kbar * (L - hi)
    c = kbar * L
    if c > 700.0:
        # sinh(a) sinh(b) / sinh(c) = e^(a+b-c) (1-e^-2a)(1-e^-2b)/(2 (1-e^-2c)),
        # with a + b - c = kbar (lo - hi) <= 0; summing a, b and -c could
        # cancel to a rounding error above 709, where exp overflows
        return (
            math.exp(kbar * (lo - hi))
            * (-math.expm1(-2.0 * a))
            * (-math.expm1(-2.0 * b))
            / (2.0 * kbar * (-math.expm1(-2.0 * c)))
        )
    denom = kbar * math.sinh(c)
    if denom < sys.float_info.min:  # about kbar^2 L; subnormal or 0 below kbar ~ 1e-154 at L = 1
        raise DomainError(f"green_closed: kbar={kbar} too small; kbar sinh(kbar L) underflows")
    return math.sinh(a) * math.sinh(b) / denom


def green_mode_sum(
    kbar: float,
    z: float,
    zp: float,
    L: float,
    bc: ScalarBC,
    budget: SeriesBudget,
) -> float:
    """Eigenmode expansion of the slab Green function, truncated.

    (2/L) sum_n sin(n pi z/L) sin(n pi zp/L) / (k^2 + (n pi/L)^2) for
    Dirichlet; cosines for Neumann plus the n = 0 term 1/(L k^2), which
    is finite at fixed k > 0 and required for the mode sum to satisfy
    the defining differential equation. Working memory: a few arrays of
    max_modes doubles. A bc other than a ScalarBC member raises
    ValueError before any other check.
    """
    if bc is not ScalarBC.DIRICHLET and bc is not ScalarBC.NEUMANN:
        raise ValueError(f"green_mode_sum: bc must be a ScalarBC, got {bc!r}")
    _check_green("green_mode_sum", kbar, z, zp, L)
    phase = np.pi / L
    # The denominators rise with n from k^2 + phase^2; none may overflow, and
    # the first must be large enough that no sum of max_modes terms can.
    top = budget.max_modes * phase
    low = kbar * kbar + phase * phase
    if not (budget.max_modes < low * sys.float_info.max and kbar * kbar + top * top < math.inf):
        raise DomainError(f"green_mode_sum: kbar={kbar} and L={L} put a term out of range")
    extra = 0.0
    if bc is not ScalarBC.DIRICHLET:
        n0 = L * kbar * kbar  # the n = 0 term is its reciprocal
        extra = 1.0 / n0 if n0 else math.inf
        if extra == math.inf:
            raise DomainError(f"green_mode_sum: kbar={kbar} too small; 1/(L kbar^2) overflows")
    n = np.arange(1, budget.max_modes + 1, dtype=np.float64)
    denom = kbar * kbar + (n * phase) ** 2
    if bc is ScalarBC.DIRICHLET:
        terms = np.sin(n * (phase * z)) * np.sin(n * (phase * zp)) / denom
    else:
        terms = np.cos(n * (phase * z)) * np.cos(n * (phase * zp)) / denom
    return (2.0 / L) * float(terms.sum()) + extra


def image_profile_sum(dim_D: int, x: float, budget: SeriesBudget) -> float:
    """Direct image sum sum_j |j + x|^(-D) over |j| <= max_images.

    The discarded tail is replaced by its integral approximation
    2 / ((D-1) J^(D-1)); with J = 10^6 the residual beyond that
    correction is far below 1e-12 for every D >= 3. Working memory: one
    array of 2 max_images + 1 doubles (16 MB at the default budget),
    which every step updates in place.
    """
    if not 2 <= dim_D < math.inf:
        raise DomainError(f"image_profile_sum: requires a finite D >= 2, got {dim_D}")
    if not 0.0 < x < 1.0:
        raise DomainError("image_profile_sum: x must lie strictly inside (0, 1)")
    try:
        # The largest term, that of the image nearest to x.
        min(x, 1.0 - x) ** -float(dim_D)
    except OverflowError:
        raise DomainError(f"image_profile_sum: x={x} too close to a plate; x^-D overflows") from None
    j_cap = budget.max_images
    terms = np.arange(-j_cap, j_cap + 1, dtype=np.float64)
    terms += x
    np.abs(terms, out=terms)
    with np.errstate(over="ignore"):  # an infinite total is rejected below
        np.power(terms, -float(dim_D), out=terms)
        total = float(terms.sum())
    if total == math.inf:  # two terms near the largest double, at a D above 1000
        raise DomainError(f"image_profile_sum: the sum overflows a double at D={dim_D}, x={x}")
    try:
        total += 2.0 / ((dim_D - 1) * float(j_cap) ** (dim_D - 1))
    except OverflowError:
        pass  # J^(D-1) overflows, so the tail lies far below the total's last bit
    return total


def _regulated_energy_d2(alpha: float) -> float:
    # 1/2 sum_n omega_n e^(-alpha omega_n) with omega_n = n pi at L = 1, in
    # closed form: pi / (8 sinh^2(alpha pi / 2)).
    half_beta = 0.5 * alpha * math.pi
    return math.pi / (8.0 * math.sinh(half_beta) ** 2)


# The default schedule scaled by 2 shares six of its eight cutoffs bit for
# bit with the unscaled one, so a regulator-independence check that fits
# both evaluates ten energies, not sixteen. The cache holds only floats.
@lru_cache(maxsize=64)
def _regulated_energy_d3(alpha: float, max_modes: int) -> float:
    # One transverse continuum at L = 1: E(alpha) = (1/2pi) sum_n m_n^2
    # g(alpha m_n) with m_n = n pi and g(x) = int_0^inf cosh^2(t) e^(-x cosh t)
    # dt, over the modes with alpha m_n <= 45. The substitution makes the
    # integrand decay double-exponentially, so a plain trapezoid rule on a
    # fixed t grid converges to machine precision.
    n_max = math.ceil(45.0 / (alpha * math.pi))
    if n_max > max_modes:
        raise DomainError(f"cutoff_casimir_energy: alpha={alpha} needs {n_max} modes > {max_modes}")
    m = math.pi * np.arange(1, n_max + 1, dtype=np.float64)
    x = alpha * m
    h = 0.15
    t_top = math.acosh(745.0 / float(x[0])) + h
    t = np.arange(0.0, t_top, h)
    ch = np.cosh(t)
    weights = ch * ch * h
    weights[0] *= 0.5
    decay = np.outer(x, ch)
    np.negative(decay, out=decay)
    with np.errstate(under="ignore"):
        np.exp(decay, out=decay)
    g = decay @ weights
    return float((m * m * g).sum()) / (2.0 * math.pi)


# The most that rounding the largest regulated energy alone may move the fitted
# constant, relative to it: 2^-52 max|E(alpha)| / |constant|. On verify's
# schedules this is at most 7.8e-7 (D = 3, scale 1); at D = 2 the default
# schedule scaled by 1e-3 reaches 1.8e-4 and misses the constant by 1.4e-4.
_ROUNDING_BOUND = 1e-5


def cutoff_casimir_energy(
    dim_D: int, L: float, schedule: CutoffSchedule, budget: SeriesBudget
) -> float:
    """Finite part of the exponentially regulated zero-point energy.

    Evaluates E(alpha) = 1/2 sum_n (int) omega e^(-alpha omega) at L = 1
    on the schedule's cutoffs, which are in units of L, removes the
    divergent 1/alpha^p terms (p = D, ..., 1) by least squares and
    returns the remaining constant times the exact L^-(D-1): an
    extraction of the (per-area) vacuum energy that never touches zeta
    continuation. Supported for D = 2 (pure mode sum, closed form) and
    D = 3 (one transverse integral per mode, done by quadrature).
    DomainError if L^-(D-1) is not a normal double, if a cutoff exceeds
    700 / pi, if D = 3 needs more than max_modes modes, or if the
    cutoffs are so small that rounding swamps the constant: where
    2^-52 max|E(alpha)| exceeds 1e-5 times its magnitude. Working
    memory at D = 3: ceil(45 / (pi alpha)) modes x the quadrature nodes;
    at the smallest default cutoff, 11576 x 87 doubles (8 MB).
    """
    if dim_D not in (2, 3):
        raise DomainError("cutoff_casimir_energy: only D in {2, 3} is supported")
    if not L > 0.0:
        raise DomainError("cutoff_casimir_energy: requires L > 0")
    try:
        factor = L ** (1 - dim_D)
    except OverflowError:
        factor = math.inf
    if not sys.float_info.min <= factor < math.inf:
        raise DomainError(f"cutoff_casimir_energy: L={L} puts L^-(D-1) out of the normal range")
    if schedule.alphas[0] * math.pi > 700.0:
        raise DomainError(f"cutoff_casimir_energy: alpha={schedule.alphas[0]} is too large")
    if schedule.alphas[0] / schedule.alphas[-1] < 10.0:
        raise IllConditionedFitError(
            "cutoff schedule must span at least one decade in alpha"
        )
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            if dim_D == 2:
                energies = np.array([_regulated_energy_d2(a) for a in schedule.alphas])
            else:
                energies = np.array(
                    [_regulated_energy_d3(a, budget.max_modes) for a in schedule.alphas]
                )
            alphas = np.asarray(schedule.alphas, dtype=np.float64)
            columns = [alphas ** (-float(p)) for p in range(dim_D, 0, -1)]
            columns.append(np.ones_like(alphas))
            design = np.column_stack(columns)
            norms = np.linalg.norm(design, axis=0)
            coef, *_ = np.linalg.lstsq(design / norms, energies, rcond=None)
            constant = float(coef[-1] / norms[-1])
            rounding = 2.0**-52 * float(np.abs(energies).max())
    except (ZeroDivisionError, FloatingPointError):
        constant = rounding = math.nan  # an energy or a power of a cutoff left the doubles
    if not rounding <= _ROUNDING_BOUND * abs(constant):
        raise DomainError(
            f"cutoff_casimir_energy: alpha={schedule.alphas[-1]} is too small; "
            "the rounding of the regulated energies swamps the constant"
        )
    return constant * factor


@dataclass(frozen=True)
class ProfileEnergy:
    interior: float
    exterior: float
    total: float


def _simpson_uniform(y: Sequence[float], h: float) -> float:
    n = len(y)
    if n < 3:
        raise InsufficientSamplesError("Simpson rule needs at least 3 samples")
    if n % 2 == 1:
        acc = y[0] + y[-1] + 4.0 * sum(y[1:-1:2]) + 2.0 * sum(y[2:-2:2])
        return acc * h / 3.0
    # Even sample count: Simpson on the first n-1 points, then a
    # quadratic through the last three for the final interval.
    return _simpson_uniform(y[:-1], h) + h * (5.0 * y[-1] + 8.0 * y[-2] - y[-3]) / 12.0


def profile_energy_integral(profile: Profile) -> ProfileEnergy:
    """Integrated energy density of a subtracted-profile sample set.

    Interior: composite Simpson quadrature over the uniformly spaced
    interior samples, plus the two sliver strips between the outermost
    samples and the plates (the subtracted density is finite there).
    Exterior: the sampled values pin the |distance|^-D power-law
    coefficient on each side, and the tail integrates analytically to
    coefficient * L / (D-1); no numeric truncation is involved.
    D and L are the profile's own. DomainError where a sample's z or
    t00 is not finite, or where the integral overflows. Working memory:
    a few lists and arrays of the sample count.
    """
    length = profile.spacetime.plate_gap_L
    dim = profile.spacetime.dim_D
    interior = [s for s in profile.samples if s.region is _INTERIOR]
    if len(interior) < 256:
        raise InsufficientSamplesError(
            f"need at least 256 interior samples, got {len(interior)}"
        )
    zs = np.array([s.z for s in interior])
    ys = [s.tensor.t00 for s in interior]
    steps = np.diff(zs)
    h = float(steps[0])
    if float(np.abs(steps - h).max()) > 1e-9 * h:
        raise InsufficientSamplesError("interior samples must be uniformly spaced")
    inner = _simpson_uniform(ys, h)
    inner += float(zs[0]) * ys[0] + (length - float(zs[-1])) * ys[-1]

    exterior_total = 0.0
    for region in (_LEFT_EXTERIOR, _RIGHT_EXTERIOR):
        side = [s for s in profile.samples if s.region is region]
        if not side:
            continue
        dists = [length - s.z if region is _LEFT_EXTERIOR else s.z for s in side]
        try:
            coeff = sum(
                s.tensor.t00 * (dist / length) ** dim for s, dist in zip(side, dists)
            ) / len(side)
        except OverflowError:
            coeff = math.inf  # (dist / L)^D of a sample far beyond the plates
        exterior_total += coeff * length / (dim - 1)

    total = inner + exterior_total
    if not -math.inf < total < math.inf:  # so neither part is infinite or NaN
        raise DomainError("profile_energy_integral: a sample or the integral is not finite")
    return ProfileEnergy(interior=inner, exterior=exterior_total, total=total)
