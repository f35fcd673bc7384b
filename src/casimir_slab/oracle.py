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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Profile, Region, ScalarBC, Spacetime
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
    tail_order: int = 1

    def __post_init__(self) -> None:
        if self.max_images < 10**3:
            raise ValueError("max_images must be at least 10^3")
        if self.max_modes < 10**3:
            raise ValueError("max_modes must be at least 10^3")
        if self.tail_order < 0:
            raise ValueError("tail_order must be non-negative")


@dataclass(frozen=True)
class CutoffSchedule:
    """Exponential-regulator parameters and the divergences to remove.

    alphas: strictly decreasing cutoff values; must span at least a
    decade for the fit to be well conditioned. fit_powers: the powers of
    1/alpha subtracted by least squares before reading off the constant.
    """

    alphas: tuple[float, ...]
    fit_powers: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.alphas) < 4:
            raise ValueError("need at least 4 cutoff values")
        if any(a <= 0.0 for a in self.alphas):
            raise ValueError("cutoff values must be positive")
        if any(b >= a for a, b in zip(self.alphas, self.alphas[1:])):
            raise ValueError("cutoff values must be strictly decreasing")
        if any(p < 1 for p in self.fit_powers):
            raise ValueError("fit powers must all be >= 1")
        if any(q >= p for p, q in zip(self.fit_powers, self.fit_powers[1:])):
            raise ValueError("fit powers must be strictly decreasing")


def default_cutoff_schedule(dim_D: int, scale: float = 1.0) -> CutoffSchedule:
    """Eight regulator values from 0.014 down by factors of sqrt(2).

    The range [0.0012, 0.014] (times `scale`) keeps the residual
    curvature of the regulated sum well below the extraction tolerance
    while spanning comfortably more than a decade, with enough headroom
    that rescaling the whole schedule by 2 moves the answer by well
    under a part in 500.
    """
    alphas = tuple(scale * 0.014 * 2.0 ** (-k / 2.0) for k in range(8))
    return CutoffSchedule(alphas=alphas, fit_powers=tuple(range(dim_D, 0, -1)))


def green_closed(kbar: float, z: float, zp: float, L: float) -> float:
    """Dirichlet slab Green function of (-d^2/dz^2 + k^2) in closed form.

    sinh(k z_<) sinh(k (L - z_>)) / (k sinh(k L)). For k L > 700 the
    hyperbolics are rewritten with the common exponential factored out
    so the evaluation never overflows.
    """
    if not (kbar > 0.0 and L > 0.0):
        raise DomainError("green_closed: requires kbar > 0 and L > 0")
    if not (0.0 <= z <= L and 0.0 <= zp <= L):
        raise DomainError("green_closed: z and zp must lie in [0, L]")
    lo, hi = (z, zp) if z <= zp else (zp, z)
    a = kbar * lo
    b = kbar * (L - hi)
    c = kbar * L
    if c > 700.0:
        # sinh(a) sinh(b) / sinh(c) = e^(a+b-c) (1-e^-2a)(1-e^-2b)/(2 (1-e^-2c))
        return (
            math.exp(a + b - c)
            * (-math.expm1(-2.0 * a))
            * (-math.expm1(-2.0 * b))
            / (2.0 * kbar * (-math.expm1(-2.0 * c)))
        )
    return math.sinh(a) * math.sinh(b) / (kbar * math.sinh(c))


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
    max_modes doubles.
    """
    if not (kbar > 0.0 and L > 0.0):
        raise DomainError("green_mode_sum: requires kbar > 0 and L > 0")
    if not (0.0 <= z <= L and 0.0 <= zp <= L):
        raise DomainError("green_mode_sum: z and zp must lie in [0, L]")
    n = np.arange(1, budget.max_modes + 1, dtype=np.float64)
    phase = np.pi / L
    denom = kbar * kbar + (n * phase) ** 2
    if bc is ScalarBC.DIRICHLET:
        terms = np.sin(n * (phase * z)) * np.sin(n * (phase * zp)) / denom
        extra = 0.0
    else:
        terms = np.cos(n * (phase * z)) * np.cos(n * (phase * zp)) / denom
        extra = 1.0 / (L * kbar * kbar)
    return (2.0 / L) * float(terms.sum()) + extra


def image_profile_sum(dim_D: int, x: float, budget: SeriesBudget) -> float:
    """Direct image sum sum_j |j + x|^(-D) over |j| <= max_images.

    The discarded tail is replaced by its integral approximation
    2 / ((D-1) J^(D-1)) when tail_order >= 1; with J = 10^6 the residual
    beyond that correction is far below 1e-12 for every D >= 3. Working
    memory: one array of 2 max_images + 1 doubles (16 MB at the default
    budget), which every step updates in place.
    """
    if dim_D < 2:
        raise DomainError("image_profile_sum: requires D >= 2")
    if not 0.0 < x < 1.0:
        raise DomainError("image_profile_sum: x must lie strictly inside (0, 1)")
    j_cap = budget.max_images
    terms = np.arange(-j_cap, j_cap + 1, dtype=np.float64)
    terms += x
    np.abs(terms, out=terms)
    np.power(terms, -float(dim_D), out=terms)
    total = float(terms.sum())
    if budget.tail_order >= 1:
        total += 2.0 / ((dim_D - 1) * float(j_cap) ** (dim_D - 1))
    return total


def _regulated_energy_d2(L: float, alpha: float) -> float:
    # 1/2 sum_n omega_n e^(-alpha omega_n) with omega_n = n pi / L, in
    # closed form: pi / (8 L sinh^2(alpha pi / 2L)).
    half_beta = 0.5 * alpha * math.pi / L
    return math.pi / (8.0 * L * math.sinh(half_beta) ** 2)


def _regulated_energy_d3(L: float, alpha: float, max_modes: int) -> float:
    # One transverse continuum: E(alpha) = (1/2pi) sum_n m_n^2 g(alpha m_n)
    # with g(x) = int_0^inf cosh^2(t) e^(-x cosh t) dt. The substitution
    # makes the integrand decay double-exponentially, so a plain
    # trapezoid rule on a fixed t grid converges to machine precision.
    mu = math.pi / L
    n_needed = int(math.ceil(45.0 / (alpha * mu)))
    n_max = min(n_needed, max_modes)
    m = mu * np.arange(1, n_max + 1, dtype=np.float64)
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


def cutoff_casimir_energy(
    dim_D: int, L: float, schedule: CutoffSchedule, budget: SeriesBudget
) -> float:
    """Finite part of the exponentially regulated zero-point energy.

    Evaluates E(alpha) = 1/2 sum_n (int) omega e^(-alpha omega) on the
    schedule's cutoffs, removes the divergent 1/alpha^p terms by least
    squares and returns the remaining constant: an extraction of the
    (per-area) vacuum energy that never touches zeta continuation.
    Supported for D = 2 (pure mode sum, closed form) and D = 3 (one
    transverse integral per mode, done by quadrature). Working memory at
    D = 3: one array of n modes x the quadrature nodes, with
    n = min(ceil(45 L / (pi alpha)), max_modes); at the smallest default
    cutoff with L = 1 that is 11576 x 87 doubles (8 MB).
    """
    if dim_D not in (2, 3):
        raise DomainError("cutoff_casimir_energy: only D in {2, 3} is supported")
    if not L > 0.0:
        raise DomainError("cutoff_casimir_energy: requires L > 0")
    alphas = np.asarray(schedule.alphas, dtype=np.float64)
    if float(alphas.max() / alphas.min()) < 10.0:
        raise IllConditionedFitError(
            "cutoff schedule must span at least one decade in alpha"
        )
    if dim_D == 2:
        energies = np.array([_regulated_energy_d2(L, a) for a in alphas])
    else:
        energies = np.array(
            [_regulated_energy_d3(L, a, budget.max_modes) for a in alphas]
        )
    columns = [alphas ** (-float(p)) for p in schedule.fit_powers]
    columns.append(np.ones_like(alphas))
    design = np.column_stack(columns)
    norms = np.linalg.norm(design, axis=0)
    coef, *_ = np.linalg.lstsq(design / norms, energies, rcond=None)
    return float(coef[-1] / norms[-1])


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


def profile_energy_integral(profile: Profile, st: Spacetime) -> ProfileEnergy:
    """Integrated energy density of a subtracted-profile sample set.

    Interior: composite Simpson quadrature over the uniformly spaced
    interior samples, plus the two sliver strips between the outermost
    samples and the plates (the subtracted density is finite there).
    Exterior: the sampled values pin the |distance|^-D power-law
    coefficient on each side, and the tail integrates analytically to
    coefficient * L / (D-1); no numeric truncation is involved.
    Working memory: a few lists and arrays of the sample count.
    """
    length = st.plate_gap_L
    dim = st.dim_D
    interior = [s for s in profile.samples if s.region is Region.INTERIOR]
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
    for region in (Region.LEFT_EXTERIOR, Region.RIGHT_EXTERIOR):
        side = [s for s in profile.samples if s.region is region]
        if not side:
            continue
        dists = [length - s.z if region is Region.LEFT_EXTERIOR else s.z for s in side]
        coeff = sum(
            s.tensor.t00 * (dist / length) ** dim for s, dist in zip(side, dists)
        ) / len(side)
        exterior_total += coeff * length / (dim - 1)

    return ProfileEnergy(
        interior=inner, exterior=exterior_total, total=inner + exterior_total
    )
