"""Closed-form vacuum energies, pressures and stress tensors for a slab.

Geometry: two parallel hyperplanes a distance L apart in D-dimensional
flat spacetime (D = 1 + d, metric diag(1, -1, ..., -1)), natural units
hbar = c = 1. The plates sit at z = 0 and z = L; "transverse" means the
D - 2 spatial directions parallel to the plates.

Every density or pressure returned here scales as 1/L^D; energies per
unit plate hyperarea scale as 1/L^(D-1). Stress tensors are reported as
physical component values (t00 = energy density, tzz = normal pressure,
t_transverse = the common value of the diagonal transverse components),
so callers never handle metric signs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from operator import add
from typing import Iterable

from . import specfun
from .errors import DomainError

__all__ = [
    "ScalarBC",
    "EmBC",
    "TheoryKind",
    "Theory",
    "Spacetime",
    "StressTensor",
    "Region",
    "ProfileSample",
    "Profile",
    "FieldFluctuations",
    "base_energy_density",
    "total_energy_per_area",
    "pressure",
    "f_profile",
    "F_theta",
    "scalar_energy_density",
    "scalar_stress",
    "scalar_stress_rows",
    "em_fluctuations",
    "em_fluctuations_rows",
    "em_stress",
    "em_stress_rows",
    "single_plate_stress",
    "f_tilde",
    "subtracted_profile",
    "subtracted_rows",
    "field_invariant",
]

_MIN_DIM = 2
_MAX_DIM = 24  # series/Bernoulli tails are validated in this range only


class ScalarBC(Enum):
    """Boundary condition for the scalar field on both plates."""

    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"


class EmBC(Enum):
    """Electromagnetic boundary condition; maps rigidly onto a scalar one.

    Perfectly conducting (metallic) walls constrain the gauge field like
    Dirichlet plates; the bag-model (MIT) condition is the dual choice
    and behaves like Neumann plates. The mapping is not configurable.
    """

    METALLIC = "metallic"
    MIT = "mit"

    @property
    def scalar_bc(self) -> ScalarBC:
        return ScalarBC.DIRICHLET if self is EmBC.METALLIC else ScalarBC.NEUMANN


class TheoryKind(Enum):
    SCALAR_CANONICAL = "scalar-canonical"
    SCALAR_IMPROVED = "scalar-improved"
    MAXWELL = "maxwell"


@dataclass(frozen=True)
class Theory:
    """Field content plus the stress tensor convention to evaluate.

    The improved scalar differs from the canonical one only by the
    total-derivative improvement term that restores tracelessness; it
    changes the local energy distribution but never the force.
    """

    kind: TheoryKind
    bc: ScalarBC | EmBC

    def __post_init__(self) -> None:
        if self.kind is TheoryKind.MAXWELL:
            if not isinstance(self.bc, EmBC):
                raise ValueError("Maxwell theory requires an EmBC boundary condition")
        elif not isinstance(self.bc, ScalarBC):
            raise ValueError("scalar theories require a ScalarBC boundary condition")

    @property
    def scalar_bc(self) -> ScalarBC:
        """The scalar boundary condition the computation reduces to."""
        if isinstance(self.bc, EmBC):
            return self.bc.scalar_bc
        return self.bc


@dataclass(frozen=True)
class Spacetime:
    """Slab geometry: spacetime dimension D and plate separation L."""

    dim_D: int
    plate_gap_L: float = 1.0

    def __post_init__(self) -> None:
        if self.dim_D != int(self.dim_D) or not _MIN_DIM <= self.dim_D <= _MAX_DIM:
            raise ValueError(
                f"dim_D must be an integer in [{_MIN_DIM}, {_MAX_DIM}], got {self.dim_D}"
            )
        if not (math.isfinite(self.plate_gap_L) and self.plate_gap_L > 0.0):
            raise ValueError(f"plate_gap_L must be positive, got {self.plate_gap_L}")


@dataclass(frozen=True)
class StressTensor:
    """Diagonal stress-tensor values at one point.

    t00: energy density. tzz: pressure normal to the plates.
    t_transverse: common value of the diagonal components along the
    plate directions. trace: t00 - (D-2) t_transverse - tzz.
    """

    t00: float
    tzz: float
    t_transverse: float
    trace: float


class Region(Enum):
    LEFT_EXTERIOR = "left-exterior"
    INTERIOR = "interior"
    RIGHT_EXTERIOR = "right-exterior"


@dataclass(frozen=True)
class ProfileSample:
    z: float
    region: Region
    tensor: StressTensor


@dataclass(frozen=True)
class Profile:
    """Stress tensor sampled on a strictly increasing z grid."""

    spacetime: Spacetime
    theory: Theory
    samples: tuple[ProfileSample, ...]

    def __post_init__(self) -> None:
        zs = [s.z for s in self.samples]
        if any(b <= a for a, b in zip(zs, zs[1:])):
            raise ValueError("profile samples must be strictly increasing in z")
        length = self.spacetime.plate_gap_L
        for s in self.samples:
            if s.region is Region.INTERIOR and not 0.0 < s.z < length:
                raise ValueError(f"interior sample at z={s.z} outside (0, L)")


@dataclass(frozen=True)
class FieldFluctuations:
    """Squared field-strength fluctuations at one point between plates.

    ez2: normal electric component. ei2: one transverse electric
    component (no sum). biz2: one magnetic component with a normal
    index. bij2: one purely transverse magnetic component (0 when D = 3,
    where no transverse pair exists).
    """

    ez2: float
    ei2: float
    biz2: float
    bij2: float


# (gamma(D/2), (4 pi)^(D/2), zeta(D)) for D = _MIN_DIM .. _MAX_DIM,
# computed once so no closed form calls gamma or zeta per point.
_AMPLITUDE_TABLE = tuple(
    (
        specfun.gamma(dim / 2.0),
        (4.0 * math.pi) ** (dim / 2.0),
        specfun.riemann_zeta(float(dim)),
    )
    for dim in range(_MIN_DIM, _MAX_DIM + 1)
)


def _amplitude(dim: int, length: float) -> tuple[float, float]:
    """(A, zeta(D)) with A = gamma(D/2) / ((4 pi)^(D/2) length^D).

    A is the overall scale of every slab-induced density, and the
    uniform density is e0 = -A zeta(D). Raises DomainError unless A is
    a positive finite double.
    """
    gamma_half, four_pi, zeta = _AMPLITUDE_TABLE[dim - _MIN_DIM]
    try:
        scale = gamma_half / (four_pi * length**dim)
    except (OverflowError, ZeroDivisionError):
        scale = math.nan  # length**dim overflowed or underflowed to 0
    if not 0.0 < scale < math.inf:
        raise DomainError(
            f"length {length} at D={dim}: the amplitude "
            "gamma(D/2)/((4 pi)^(D/2) length^D) is not a finite positive double"
        )
    return scale, zeta


def _bc_sign(bc: ScalarBC | EmBC) -> float:
    # Upper sign for Dirichlet-like conditions throughout.
    scalar = bc.scalar_bc if isinstance(bc, EmBC) else bc
    return 1.0 if scalar is ScalarBC.DIRICHLET else -1.0


_OVERFLOW = "D={}: a result overflows a double (small length or z near a plate)"


def _finite(value: float, dim: int) -> float:
    if not math.isfinite(value):
        raise DomainError(_OVERFLOW.format(dim))
    return value


def _stress_row(dim: int, t00: float, tzz: float) -> tuple[float, float, float, float]:
    # (t00, tzz, t_transverse, trace). All tensors here are proportional
    # to the transverse metric in the barred block, so t_transverse =
    # -t00 and the trace follows. The "+ 0.0" normalizes negative zeros
    # produced by vanishing coefficients so reports never print -0. A
    # finite trace implies finite t00 and tzz. The grid kernels inline it.
    trace = _finite((dim - 1) * t00 - tzz + 0.0, dim)
    return (t00 + 0.0, tzz + 0.0, -t00 + 0.0, trace)


def _interior_xs(st: Spacetime, grid: Iterable[float]) -> list[float]:
    # x = z/L at each z, checked to lie strictly inside also after rounding.
    length = st.plate_gap_L
    xs = []
    for z in grid:
        x = z / length
        if not (0.0 < z < length and 0.0 < x < 1.0):
            raise DomainError(
                f"z={z} is on or outside the plates; densities diverge at z=0 and z=L"
            )
        xs.append(x)
    return xs


def _image_profile(dim: int, firsts: Iterable[float], seconds: Iterable[float]) -> Iterable[float]:
    # zeta_H(D, a) + zeta_H(D, b) for the pairs (a, b), one Hurwitz loop per family.
    d = float(dim)
    return map(add, specfun._hurwitz_many(d, firsts), specfun._hurwitz_many(d, seconds))


def _profile_stress_rows(
    dim: int, xs: list[float], pre: float, zeta: float, k: float, tzz: float
) -> list[tuple[float, float, float, float]]:
    # t00 = pre [zeta(D) + k f(x)] at each x, with a z-independent tzz.
    rows = []
    for f in _image_profile(dim, xs, (1.0 - x for x in xs)):
        t00 = pre * (zeta + k * f)
        trace = (dim - 1) * t00 - tzz + 0.0
        if not -math.inf < trace < math.inf:
            raise DomainError(_OVERFLOW.format(dim))
        rows.append((t00 + 0.0, tzz + 0.0, -t00 + 0.0, trace))
    return rows


def base_energy_density(st: Spacetime) -> float:
    """Uniform vacuum energy density of the slab (scalar field, per mode).

    -gamma(D/2) zeta(D) / ((4 pi)^(D/2) L^D): always negative, scaling
    as 1/L^D.
    """
    scale, zeta = _amplitude(st.dim_D, st.plate_gap_L)
    return _finite(-(scale * zeta), st.dim_D)


def total_energy_per_area(st: Spacetime, th: Theory) -> float:
    """Vacuum energy per unit plate hyperarea.

    Scalar: E = e0 L (canonical and improved agree; the improvement term
    is a total derivative and cannot shift the integral). Maxwell: D - 2
    field polarizations multiply the scalar result.
    """
    if th.kind is TheoryKind.MAXWELL:
        dof = st.dim_D - 2
        if dof == 0:
            return 0.0
        return dof * (base_energy_density(st) * st.plate_gap_L)
    return base_energy_density(st) * st.plate_gap_L


def pressure(st: Spacetime, th: Theory) -> float:
    """Normal force per unit hyperarea on the plates, -dE/dL.

    Equals (D-1) e0 for one scalar mode and (D-2)(D-1) e0 for the
    Maxwell field; negative (attractive) in every dimension with
    propagating modes.
    """
    coeff = st.dim_D - 1
    if th.kind is TheoryKind.MAXWELL:
        coeff *= st.dim_D - 2
        if coeff == 0:
            return 0.0
    return _finite(coeff * base_energy_density(st), st.dim_D)


def f_profile(st: Spacetime, x: float) -> float:
    """Dimensionless image-sum profile sum_j |j + x|^(-D), 0 < x < 1.

    Evaluated through its Hurwitz closed form
    zeta_H(D, x) + zeta_H(D, 1-x); symmetric about x = 1/2 and diverging
    as x^-D at the plates.
    """
    if not 0.0 < x < 1.0:
        raise DomainError(f"f_profile: x={x} is on a plate; the image sum diverges")
    left, right = specfun._hurwitz_many(float(st.dim_D), (x, 1.0 - x))
    return left + right


def F_theta(theta: float) -> float:
    """Position-dependence factor 3/sin^4 - 2/sin^2 at D = 4.

    Normalized so that the midpoint value is 1; every position-dependent
    expectation value in four dimensions is proportional to it.
    """
    if not 0.0 < theta < math.pi:
        raise DomainError(f"F_theta: theta={theta} outside (0, pi)")
    s2 = math.sin(theta) ** 2
    return 3.0 / s2**2 - 2.0 / s2


def scalar_stress_rows(
    st: Spacetime, bc: ScalarBC, grid: Iterable[float], improved: bool = False
) -> list[tuple]:
    """scalar_stress as rows (t00, tzz, t_transverse, trace) on a grid of 0 < z < L."""
    dim = st.dim_D
    scale, zeta = _amplitude(dim, st.plate_gap_L)
    xs = _interior_xs(st, grid)
    e0 = -(scale * zeta)
    tzz = (dim - 1) * e0
    coef = dim / 2.0 - 1.0
    if improved or coef == 0.0:
        return [_stress_row(dim, e0, tzz)] * len(xs)
    return _profile_stress_rows(dim, xs, -scale, zeta, _bc_sign(bc) * coef, tzz)


def scalar_energy_density(st: Spacetime, bc: ScalarBC, z: float) -> float:
    """Local vacuum energy density of the canonical scalar at 0 < z < L.

    -(scale) [zeta(D) +/- (D/2 - 1) f(z/L)], upper sign for Dirichlet.
    The f term vanishes identically at D = 2 (the conformal case) and
    diverges at the plates otherwise.
    """
    return scalar_stress_rows(st, bc, (z,))[0][0]


def scalar_stress(
    st: Spacetime, bc: ScalarBC, z: float, improved: bool = False
) -> StressTensor:
    """Scalar stress tensor at 0 < z < L (massless field).

    Canonical: t00 is the z-dependent local density, tzz = (D-1) e0 is
    position independent. Improved: the traceless tensor, with constant
    t00 = e0, t_transverse = -e0, tzz = (D-1) e0. At D = 2 the two
    coincide because the improvement coefficient vanishes.
    """
    return StressTensor(*scalar_stress_rows(st, bc, (z,), improved)[0])


def em_fluctuations_rows(st: Spacetime, bc: EmBC, grid: Iterable[float]) -> list[tuple]:
    """em_fluctuations as rows (ez2, ei2, biz2, bij2) on a grid of 0 < z < L."""
    dim = st.dim_D
    if dim < 3:
        raise DomainError("em_fluctuations: Maxwell needs D >= 3")
    scale, zeta = _amplitude(dim, st.plate_gap_L)
    xs = _interior_xs(st, grid)
    pre_e = (dim - 2) * scale
    pre_i = -2.0 * scale
    half = _bc_sign(bc) * 0.5
    rows = []
    for f in _image_profile(dim, xs, (1.0 - x for x in xs)):
        ez2 = pre_e * (zeta + half * f)
        ei2 = pre_i * (zeta - half * f)
        if not (-math.inf < ez2 < math.inf and -math.inf < ei2 < math.inf):
            raise DomainError(_OVERFLOW.format(dim))
        rows.append((ez2, ei2, -ez2, -ei2 if dim > 3 else 0.0))
    return rows


def em_fluctuations(st: Spacetime, bc: EmBC, z: float) -> FieldFluctuations:
    """Squared electric/magnetic fluctuations between the plates, D >= 3.

    With the common scale A = gamma(D/2)/((4 pi)^(D/2) L^D) and the
    profile f = f(z/L), metallic walls give

        ez2 = (D-2) A [zeta(D) + f/2],   ei2 = -2 A [zeta(D) - f/2],

    and the dual (MIT) condition flips the sign of the f terms. The
    magnetic entries follow from duality: biz2 = -ez2, bij2 = -ei2
    (bij2 is reported as 0 at D = 3 where no transverse pair exists).
    """
    return FieldFluctuations(*em_fluctuations_rows(st, bc, (z,))[0])


def field_invariant(fl: FieldFluctuations, dim_D: int) -> float:
    """Full contraction of the squared field strength from its components.

    Counting the D-2 transverse directions once per electric component
    and per mixed magnetic component, and the (D-2)(D-3)/2 unordered
    transverse pairs twice (antisymmetry), the invariant is

        F^2 = -2 [(D-2) ei2 + ez2] + 2 (D-2) biz2 + (D-2)(D-3) bij2.
    """
    dof = dim_D - 2
    return (
        -2.0 * (dof * fl.ei2 + fl.ez2)
        + 2.0 * dof * fl.biz2
        + dof * (dim_D - 3) * fl.bij2
    )


def em_stress_rows(st: Spacetime, bc: EmBC, grid: Iterable[float]) -> list[tuple]:
    """em_stress as rows (t00, tzz, t_transverse, trace) on a grid of 0 < z < L."""
    dim = st.dim_D
    if dim < 3:
        raise DomainError("em_stress: Maxwell needs D >= 3")
    scale, zeta = _amplitude(dim, st.plate_gap_L)
    xs = _interior_xs(st, grid)
    e0 = -(scale * zeta)
    tzz = ((dim - 2) * (dim - 1)) * e0
    coef = dim / 2.0 - 2.0
    if coef == 0.0:
        return [_stress_row(dim, (dim - 2) * e0, tzz)] * len(xs)
    return _profile_stress_rows(dim, xs, -(dim - 2) * scale, zeta, _bc_sign(bc) * coef, tzz)


def em_stress(st: Spacetime, bc: EmBC, z: float) -> StressTensor:
    """Maxwell stress tensor between the plates, D >= 3.

    t00 = -(D-2) A [zeta(D) +/- (D/2 - 2) f(z/L)] (upper sign metallic),
    tzz = (D-2)(D-1) e0 independent of z. The position-dependent term
    carries the coefficient D/2 - 2, which vanishes exactly at D = 4:
    the conformal case with a constant energy density.
    """
    return StressTensor(*em_stress_rows(st, bc, (z,))[0])


def single_plate_stress(dim_D: int, bc: EmBC, z: float) -> StressTensor:
    """Maxwell stress induced by one plate at z = 0, evaluated at z != 0.

    The infinite-separation limit of the two-plate tensor: tzz vanishes
    on both sides, and the remaining components fall off as |z|^-D with
    coefficient -(D-2)(D/2-2) gamma(D/2)/(4 pi)^(D/2) for metallic walls
    (sign reversed for MIT). Identically zero at D = 4.
    """
    if not _MIN_DIM <= dim_D <= _MAX_DIM or dim_D != int(dim_D):
        raise ValueError(f"dim_D must be an integer in [{_MIN_DIM}, {_MAX_DIM}]")
    if dim_D < 3:
        raise DomainError("single_plate_stress: Maxwell needs D >= 3")
    if z == 0.0:
        raise DomainError("single_plate_stress: on-plate point z=0")
    coef = dim_D / 2.0 - 2.0
    if coef == 0.0:
        return StressTensor(0.0, 0.0, 0.0, 0.0)
    scale, _ = _amplitude(dim_D, abs(z))
    t00 = -_bc_sign(bc) * (dim_D - 2) * coef * scale
    return StressTensor(*_stress_row(dim_D, t00, 0.0))


def f_tilde(st: Spacetime, x: float) -> float:
    """Plate-term-subtracted profile, finite on the closed interval [0, 1].

    zeta_H(D, 1+x) + zeta_H(D, 2-x): the image profile with the two
    nearest-image contributions x^-D and (1-x)^-D removed; symmetric
    about x = 1/2.
    """
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"f_tilde: x={x} outside [0, 1]")
    left, right = specfun._hurwitz_many(float(st.dim_D), (1.0 + x, 2.0 - x))
    return left + right


def subtracted_rows(st: Spacetime, bc: EmBC, grid: Iterable[float]) -> list[tuple]:
    """subtracted_profile as rows (z, t00, tzz, t_transverse, trace, region), sorted by z."""
    dim = st.dim_D
    if dim < 3:
        raise DomainError("subtracted_profile: Maxwell needs D >= 3")
    length = st.plate_gap_L
    scale, zeta = _amplitude(dim, length)
    coef = dim / 2.0 - 2.0
    sign = _bc_sign(bc)
    k = sign * coef
    k_exterior = -sign * coef
    pre = -(dim - 2) * scale
    tzz_interior = ((dim - 2) * (dim - 1)) * -(scale * zeta)
    zs = sorted(grid)
    xs = [z / length for z in zs if 0.0 < z < length]
    profile = _image_profile(dim, (1.0 + x for x in xs), (2.0 - x for x in xs))
    rows = []
    for z in zs:
        tzz = 0.0
        if z < 0.0:
            t00 = pre * (k_exterior * (length / (length - z)) ** dim)
            region = Region.LEFT_EXTERIOR
        elif z > length:
            t00 = pre * (k_exterior * (length / z) ** dim)
            region = Region.RIGHT_EXTERIOR
        elif 0.0 < z < length:
            t00 = pre * (zeta + k * next(profile))
            tzz = tzz_interior
            region = Region.INTERIOR
        else:
            raise DomainError(
                f"subtracted_profile: grid point z={z} sits exactly on a plate or is not a number"
            )
        trace = (dim - 1) * t00 - tzz + 0.0
        if not -math.inf < trace < math.inf:
            raise DomainError(_OVERFLOW.format(dim))
        rows.append((z, t00 + 0.0, tzz + 0.0, -t00 + 0.0, trace, region))
    return rows


def subtracted_profile(st: Spacetime, bc: EmBC, z_grid: Iterable[float]) -> Profile:
    """Everywhere-finite Maxwell stress profile, plate self-energies removed.

    Subtracting from the two-plate tensor the single-plate |z|^-D tails
    of both plates (both sides each) leaves a piecewise expression that
    is finite for all z: the interior bracket uses the subtracted
    profile function, the exterior branches are pure power laws with
    zero pressure. Grid points may lie outside the slab but must avoid
    z = 0 and z = L exactly, where the branch assignment is ambiguous;
    probe the two one-sided limits instead.
    """
    samples = tuple(
        ProfileSample(z, region, StressTensor(*tensor))
        for z, *tensor, region in subtracted_rows(st, bc, z_grid)
    )
    theory = Theory(TheoryKind.MAXWELL, bc)
    return Profile(spacetime=st, theory=theory, samples=samples)
