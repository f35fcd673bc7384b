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
from enum import Enum
from itertools import islice
from operator import add
from typing import TYPE_CHECKING, Iterable

from . import specfun
from .errors import DomainError, _shown

if TYPE_CHECKING:
    from .records import FieldFluctuations

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
_DIMS = range(_MIN_DIM, _MAX_DIM + 1)


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


# The members the kernels test for, as module names. The enum metaclass
# defines __getattr__ (Python 3.11), which puts every member read through the
# class, such as ScalarBC.DIRICHLET, on a slow path: several times the cost of
# reading a module name.
_DIRICHLET = ScalarBC.DIRICHLET
_NEUMANN = ScalarBC.NEUMANN
_METALLIC = EmBC.METALLIC
_MIT = EmBC.MIT
_MAXWELL = TheoryKind.MAXWELL


class _Value:
    # A small immutable value whose fields are its __slots__. It compares,
    # hashes, prints and pickles as the tuple of its fields, as a frozen
    # dataclass does, without importing dataclasses at start-up.
    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(map("{}={!r}".format, self.__slots__, self._fields()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._fields()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Theory(_Value):
    """Field content plus the stress tensor convention to evaluate.

    The improved scalar differs from the canonical one only by the
    total-derivative improvement term that restores tracelessness; it
    changes the local energy distribution but never the force.
    """

    __match_args__ = __slots__ = ("kind", "bc")
    kind: TheoryKind
    bc: ScalarBC | EmBC

    def __init__(self, kind: TheoryKind, bc: ScalarBC | EmBC) -> None:
        if kind is _MAXWELL:
            if not isinstance(bc, EmBC):
                raise ValueError("Maxwell theory requires an EmBC boundary condition")
        elif not isinstance(bc, ScalarBC):
            raise ValueError("scalar theories require a ScalarBC boundary condition")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "bc", bc)

    @property
    def scalar_bc(self) -> ScalarBC:
        """The scalar boundary condition the computation reduces to."""
        if isinstance(self.bc, EmBC):
            return self.bc.scalar_bc
        return self.bc


def _check_dim(dim_D: int) -> int:
    # dim_D as an int, which every lookup by dimension needs; a float or a
    # numpy integer is in the range if it equals one of its ints.
    if dim_D not in _DIMS:
        raise ValueError(
            f"dim_D must be an integer in [{_MIN_DIM}, {_MAX_DIM}], got {_shown(dim_D)}"
        )
    return int(dim_D)


class Spacetime(_Value):
    """Slab geometry: spacetime dimension D and plate separation L."""

    __match_args__ = __slots__ = ("dim_D", "plate_gap_L")
    dim_D: int
    plate_gap_L: float

    def __init__(self, dim_D: int, plate_gap_L: float = 1.0) -> None:
        dim_D = _check_dim(dim_D)
        if not (specfun._finite_double(plate_gap_L) and plate_gap_L > 0.0):
            raise ValueError(f"plate_gap_L must be positive, got {_shown(plate_gap_L)}")
        object.__setattr__(self, "dim_D", dim_D)
        object.__setattr__(self, "plate_gap_L", plate_gap_L)


class Region(Enum):
    LEFT_EXTERIOR = "left-exterior"
    INTERIOR = "interior"
    RIGHT_EXTERIOR = "right-exterior"


# As module names, for the reason given at _DIRICHLET.
_LEFT_EXTERIOR = Region.LEFT_EXTERIOR
_INTERIOR = Region.INTERIOR
_RIGHT_EXTERIOR = Region.RIGHT_EXTERIOR


# (gamma(D/2), (4 pi)^(D/2), zeta(D)) for D = _MIN_DIM .. _MAX_DIM, each the double
# nearest the exact value, which test_amplitude_table_is_correctly_rounded derives to
# 80 digits from factorials, a decimal pi and exact Bernoulli numbers (tests/test_core.py).
_AMPLITUDE_TABLE = (
    (1.0, 12.566370614359172, 1.6449340668482264),  # D = 2
    (0.886226925452758, 44.54662397465366, 1.2020569031595942),  # D = 3
    (1.0, 157.91367041742973, 1.0823232337111381),  # D = 4
    (1.329340388179137, 559.7893864839956, 1.03692775514337),  # D = 5
    (2.0, 1984.4017075391885, 1.0173430619844492),  # D = 6
    (3.3233509704478426, 7034.520896542633, 1.008349277381923),  # D = 7
    (6.0, 24936.727304704626, 1.0040773561979444),  # D = 8
    (11.631728396567448, 88398.39668040889, 1.0020083928260821),  # D = 9
    (24.0, 313364.1572201282, 1.000994575127818),  # D = 10
    (52.34277778455352, 1110847.0144011555, 1.0004941886041194),  # D = 11
    (120.0, 3937850.136884447, 1.000246086553308),  # D = 12
    (287.88527781504433, 13959315.278819302, 1.0001227133475785),  # D = 13
    (720.0, 49484484.243894964, 1.0000612481350588),  # D = 14
    (1871.2543057977884, 175417929.31632993, 1.000030588236307),  # D = 15
    (5040.0, 621840368.6692011, 1.0000152822594086),  # D = 16
    (14034.407293483413, 2204366712.192463, 1.0000076371976379),  # D = 17
    (40320.0, 7814276535.6669235, 1.000003817293265),  # D = 18
    (119292.46199460901, 27700889075.36691, 1.0000019082127165),  # D = 19
    (362880.0, 98197095030.28123, 1.0000009539620338),  # D = 20
    (1133278.3889487856, 348099638468.3138, 1.0000004769329869),  # D = 21
    (3628800.0, 1233981089403.9612, 1.0000002384505027),  # D = 22
    (11899423.083962249, 4374349067717.27, 1.000000119219926),  # D = 23
    (39916800.0, 15506663700560.857, 1.000000059608189),  # D = 24
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
            f"length {_shown(length)} at D={dim}: the amplitude "
            "gamma(D/2)/((4 pi)^(D/2) length^D) is not a finite positive double"
        )
    return scale, zeta


def _bc_sign(bc: ScalarBC | EmBC) -> float:
    # Upper sign for Dirichlet-like conditions throughout. Every function that
    # takes a boundary condition calls this first, so each rejects a bad one.
    if bc is _DIRICHLET or bc is _METALLIC:
        return 1.0
    if bc is _NEUMANN or bc is _MIT:
        return -1.0
    raise ValueError(f"bc must be a ScalarBC or EmBC member, got {bc!r}")


_OVERFLOW = "D={}: a result overflows a double (small length or z near a plate)"


def _finite(value: float, dim: int) -> float:
    if not math.isfinite(value):
        raise DomainError(_OVERFLOW.format(_shown(dim)))
    return value


def _stress_row(dim: int, t00: float, tzz: float) -> tuple[float, float, float, float]:
    # (t00, tzz, t_transverse, trace). All tensors here are proportional
    # to the transverse metric in the barred block, so t_transverse =
    # -t00 and the trace follows. The "+ 0.0" normalizes negative zeros
    # produced by vanishing coefficients so reports never print -0. A
    # finite trace implies finite t00 and tzz. The grid kernels inline it.
    trace = _finite((dim - 1) * t00 - tzz + 0.0, dim)
    return (t00 + 0.0, tzz + 0.0, -t00 + 0.0, trace)


def _interior_args(st: Spacetime, grid: Iterable[float]) -> list[float]:
    # The Hurwitz arguments of f at each z of the grid: every x = z/L, then
    # every 1 - x, each x checked to lie strictly inside also after rounding
    # (z first, so that an int beyond the doubles never reaches z / L).
    length = st.plate_gap_L
    xs = []
    mirrors = []
    for z in grid:
        if not (0.0 < z < length and 0.0 < (x := z / length) < 1.0):
            raise DomainError(
                f"z={_shown(z)} is on or outside the plates; densities diverge at z=0 and z=L"
            )
        xs.append(x)
        mirrors.append(1.0 - x)
    xs += mirrors
    return xs


def _image_profile(dim: int, args: list[float]) -> Iterable[float]:
    # zeta_H(D, a_i) + zeta_H(D, a_{n+i}) for the 2n arguments a, the firsts
    # then the seconds of each pair, in one Hurwitz loop.
    values = specfun._hurwitz_many(float(dim), args)
    return map(add, values, islice(values, len(args) // 2, None))


def _stress_rows(
    st: Spacetime, sign: float, grid: Iterable[float], dof: int, coef: float
) -> list[tuple[float, float, float, float]]:
    # Rows (t00, tzz, t_transverse, trace) of dof scalar polarisations on a
    # grid of 0 < z < L: t00 = -dof A [zeta(D) + sign coef f(z/L)] and
    # tzz = dof (D-1) e0, with t00 = dof e0 at every z when coef is 0.
    dim = st.dim_D
    scale, zeta = _amplitude(dim, st.plate_gap_L)
    args = _interior_args(st, grid)
    e0 = -(scale * zeta)
    tzz = (dof * (dim - 1)) * e0
    if coef == 0.0:
        return [_stress_row(dim, dof * e0, tzz)] * (len(args) // 2)
    pre = -dof * scale
    k = sign * coef
    rows = []
    for f in _image_profile(dim, args):
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
    if th.kind is _MAXWELL:
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
    if th.kind is _MAXWELL:
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
        raise DomainError(f"f_profile: x={_shown(x)} is on a plate; the image sum diverges")
    left, right = specfun._hurwitz_many(float(st.dim_D), (x, 1.0 - x))
    return left + right


def F_theta(theta: float) -> float:
    """Position-dependence factor 3/sin^4 - 2/sin^2 at D = 4.

    Normalized so that the midpoint value is 1; every position-dependent
    expectation value in four dimensions is proportional to it.
    """
    if not 0.0 < theta < math.pi:
        raise DomainError(f"F_theta: theta={_shown(theta)} outside (0, pi)")
    s2 = math.sin(theta) ** 2
    s4 = s2**2
    # Below theta of about 1e-77, 3/s4 overflows; below about 1e-81, s4 is 0.
    value = 3.0 / s4 - 2.0 / s2 if s4 else math.inf
    if value == math.inf:
        raise DomainError(f"F_theta: theta={theta}: the value overflows a double")
    return value


def scalar_stress_rows(
    st: Spacetime, bc: ScalarBC, grid: Iterable[float], improved: bool = False
) -> list[tuple]:
    """scalar_stress as rows (t00, tzz, t_transverse, trace) on a grid of 0 < z < L."""
    return _stress_rows(st, _bc_sign(bc), grid, 1, 0.0 if improved else st.dim_D / 2.0 - 1.0)


def scalar_energy_density(st: Spacetime, bc: ScalarBC, z: float) -> float:
    """Local vacuum energy density of the canonical scalar at 0 < z < L.

    -(scale) [zeta(D) +/- (D/2 - 1) f(z/L)], upper sign for Dirichlet.
    The f term vanishes identically at D = 2 (the conformal case) and
    diverges at the plates otherwise.
    """
    return scalar_stress_rows(st, bc, (z,))[0][0]


def em_fluctuations_rows(st: Spacetime, bc: EmBC, grid: Iterable[float]) -> list[tuple]:
    """em_fluctuations as rows (ez2, ei2, biz2, bij2) on a grid of 0 < z < L."""
    half = _bc_sign(bc) * 0.5
    dim = st.dim_D
    if dim < 3:
        raise DomainError("em_fluctuations: Maxwell needs D >= 3")
    scale, zeta = _amplitude(dim, st.plate_gap_L)
    args = _interior_args(st, grid)
    pre_e = (dim - 2) * scale
    pre_i = -2.0 * scale
    rows = []
    for f in _image_profile(dim, args):
        ez2 = pre_e * (zeta + half * f)
        ei2 = pre_i * (zeta - half * f)
        if not (-math.inf < ez2 < math.inf and -math.inf < ei2 < math.inf):
            raise DomainError(_OVERFLOW.format(dim))
        rows.append((ez2, ei2, -ez2, -ei2 if dim > 3 else 0.0))
    return rows


def field_invariant(fl: FieldFluctuations, dim_D: int) -> float:
    """Full contraction of the squared field strength from its components.

    Counting the D-2 transverse directions once per electric component
    and per mixed magnetic component, and the (D-2)(D-3)/2 unordered
    transverse pairs twice (antisymmetry), the invariant is

        F^2 = -2 [(D-2) ei2 + ez2] + 2 (D-2) biz2 + (D-2)(D-3) bij2.

    Raises DomainError where that sum is not a finite double.
    """
    dof = dim_D - 2
    try:
        value = -2.0 * (dof * fl.ei2 + fl.ez2) + 2.0 * dof * fl.biz2 + dof * (dim_D - 3) * fl.bij2
    except OverflowError:  # an int beyond the doubles, or a product of ints
        value = math.nan
    return _finite(value, dim_D)


def em_stress_rows(st: Spacetime, bc: EmBC, grid: Iterable[float]) -> list[tuple]:
    """em_stress as rows (t00, tzz, t_transverse, trace) on a grid of 0 < z < L."""
    sign = _bc_sign(bc)
    dim = st.dim_D
    if dim < 3:
        raise DomainError("em_stress: Maxwell needs D >= 3")
    return _stress_rows(st, sign, grid, dim - 2, dim / 2.0 - 2.0)


def _single_plate_row(dim_D: int, bc: EmBC, z: float) -> tuple[float, float, float, float]:
    # single_plate_stress as a row (t00, tzz, t_transverse, trace).
    sign = _bc_sign(bc)
    dim = _check_dim(dim_D)
    if dim < 3:
        raise DomainError("single_plate_stress: Maxwell needs D >= 3")
    if z == 0.0:
        raise DomainError("single_plate_stress: on-plate point z=0")
    coef = dim / 2.0 - 2.0
    if coef == 0.0:
        return (0.0, 0.0, 0.0, 0.0)
    scale, _ = _amplitude(dim, abs(z))
    t00 = -sign * (dim - 2) * coef * scale
    return _stress_row(dim, t00, 0.0)


def f_tilde(st: Spacetime, x: float) -> float:
    """Plate-term-subtracted profile, finite on the closed interval [0, 1].

    zeta_H(D, 1+x) + zeta_H(D, 2-x): the image profile with the two
    nearest-image contributions x^-D and (1-x)^-D removed; symmetric
    about x = 1/2.
    """
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"f_tilde: x={_shown(x)} outside [0, 1]")
    left, right = specfun._hurwitz_many(float(st.dim_D), (1.0 + x, 2.0 - x))
    return left + right


def subtracted_rows(st: Spacetime, bc: EmBC, grid: Iterable[float]) -> list[tuple]:
    """subtracted_profile as rows (z, t00, tzz, t_transverse, trace, region), sorted by z."""
    sign = _bc_sign(bc)
    dim = st.dim_D
    if dim < 3:
        raise DomainError("subtracted_profile: Maxwell needs D >= 3")
    length = st.plate_gap_L
    scale, zeta = _amplitude(dim, length)
    coef = dim / 2.0 - 2.0
    k = sign * coef
    k_exterior = -sign * coef
    pre = -(dim - 2) * scale
    tzz_interior = ((dim - 2) * (dim - 1)) * -(scale * zeta)
    zs = sorted(grid)
    # Without a NaN, which the loop rejects, sorting puts an infinity at an end.
    if zs and (zs[0] == -math.inf or zs[-1] == math.inf):
        raise DomainError("subtracted_profile: grid points must be finite")
    xs = [z / length for z in zs if 0.0 < z < length]
    profile = _image_profile(dim, [1.0 + x for x in xs] + [2.0 - x for x in xs])
    rows = []
    try:
        for z in zs:
            tzz = 0.0
            if z < 0.0:
                t00 = pre * (k_exterior * (length / (length - z)) ** dim)
                region = _LEFT_EXTERIOR
            elif z > length:
                t00 = pre * (k_exterior * (length / z) ** dim)
                region = _RIGHT_EXTERIOR
            elif 0.0 < z < length:
                t00 = pre * (zeta + k * next(profile))
                tzz = tzz_interior
                region = _INTERIOR
            else:
                raise DomainError(
                    f"subtracted_profile: grid point z={z} sits exactly on a plate "
                    "or is not a number"
                )
            trace = (dim - 1) * t00 - tzz + 0.0
            if not -math.inf < trace < math.inf:
                raise DomainError(_OVERFLOW.format(dim))
            rows.append((z, t00 + 0.0, tzz + 0.0, -t00 + 0.0, trace, region))
    except OverflowError:  # z is an int beyond the doubles
        raise DomainError(
            f"subtracted_profile: grid point z={_shown(z)} lies beyond the doubles"
        ) from None
    return rows


# The result records and the views that build them live in records, which
# imports dataclasses; each loads on first use, so the CLI never loads them.
_RECORDS = frozenset({
    "StressTensor", "FieldFluctuations", "ProfileSample", "Profile",
    "em_stress", "scalar_stress", "em_fluctuations", "single_plate_stress", "subtracted_profile",
})


def __getattr__(name: str) -> object:
    if name not in _RECORDS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import records

    value = globals()[name] = getattr(records, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_RECORDS})
