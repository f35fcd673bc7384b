"""Result records and the one-point views that build them.

StressTensor, FieldFluctuations, ProfileSample and Profile are frozen
dataclasses, so `dataclasses.asdict` and `replace` apply to them. Their
views, em_stress, scalar_stress, em_fluctuations, single_plate_stress and
subtracted_profile, turn one row of a core kernel into a record. All nine
are names of core and of the package as well, and load from here on first
use: importing dataclasses (which imports inspect) and making the classes
with it takes longer than importing the rest of the package, and the CLI,
which uses the kernels only, never loads this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from . import core
from .core import EmBC, Region, ScalarBC, Spacetime, Theory, TheoryKind


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


@dataclass(frozen=True)
class ProfileSample:
    z: float
    region: Region
    tensor: StressTensor


@dataclass(frozen=True)
class Profile:
    """Stress tensor sampled on a strictly increasing z grid, every value finite."""

    spacetime: Spacetime
    theory: Theory
    samples: tuple[ProfileSample, ...]

    def __post_init__(self) -> None:
        # Kept as a tuple, so a Profile built from a list or an iterator is the same value.
        object.__setattr__(self, "samples", tuple(self.samples))
        zs = [s.z for s in self.samples]
        if any(b <= a for a, b in zip(zs, zs[1:])):
            raise ValueError("profile samples must be strictly increasing in z")
        length = self.spacetime.plate_gap_L
        isfinite = math.isfinite
        # One loop of attribute reads: three times as fast on CPython 3.11 as
        # all(map(isfinite, ...)) over attrgetter tuples.
        for s in self.samples:
            t = s.tensor
            if not (
                isfinite(s.z)
                and isfinite(t.t00)
                and isfinite(t.tzz)
                and isfinite(t.t_transverse)
                and isfinite(t.trace)
            ):
                raise ValueError(f"profile sample at z={s.z} is not finite")
            if s.region is core._INTERIOR and not 0.0 < s.z < length:
                raise ValueError(f"interior sample at z={s.z} outside (0, L)")


# The views call the kernels as attributes of core, so that a wrapper put on
# a kernel there (a tracer's, say) sees these calls too.


def scalar_stress(
    st: Spacetime, bc: ScalarBC, z: float, improved: bool = False
) -> StressTensor:
    """Scalar stress tensor at 0 < z < L (massless field).

    Canonical: t00 is the z-dependent local density, tzz = (D-1) e0 is
    position independent. Improved: the traceless tensor, with constant
    t00 = e0, t_transverse = -e0, tzz = (D-1) e0. At D = 2 the two
    coincide because the improvement coefficient vanishes.
    """
    return StressTensor(*core.scalar_stress_rows(st, bc, (z,), improved)[0])


def em_fluctuations(st: Spacetime, bc: EmBC, z: float) -> FieldFluctuations:
    """Squared electric/magnetic fluctuations between the plates, D >= 3.

    With the common scale A = gamma(D/2)/((4 pi)^(D/2) L^D) and the
    profile f = f(z/L), metallic walls give

        ez2 = (D-2) A [zeta(D) + f/2],   ei2 = -2 A [zeta(D) - f/2],

    and the dual (MIT) condition flips the sign of the f terms. The
    magnetic entries follow from duality: biz2 = -ez2, bij2 = -ei2
    (bij2 is reported as 0 at D = 3 where no transverse pair exists).
    """
    return FieldFluctuations(*core.em_fluctuations_rows(st, bc, (z,))[0])


def em_stress(st: Spacetime, bc: EmBC, z: float) -> StressTensor:
    """Maxwell stress tensor between the plates, D >= 3.

    t00 = -(D-2) A [zeta(D) +/- (D/2 - 2) f(z/L)] (upper sign metallic),
    tzz = (D-2)(D-1) e0 independent of z. The position-dependent term
    carries the coefficient D/2 - 2, which vanishes exactly at D = 4:
    the conformal case with a constant energy density.
    """
    return StressTensor(*core.em_stress_rows(st, bc, (z,))[0])


def single_plate_stress(dim_D: int, bc: EmBC, z: float) -> StressTensor:
    """Maxwell stress induced by one plate at z = 0, evaluated at z != 0.

    The infinite-separation limit of the two-plate tensor: tzz vanishes
    on both sides, and the remaining components fall off as |z|^-D with
    coefficient -(D-2)(D/2-2) gamma(D/2)/(4 pi)^(D/2) for metallic walls
    (sign reversed for MIT). Identically zero at D = 4.
    """
    return StressTensor(*core._single_plate_row(dim_D, bc, z))


def subtracted_profile(st: Spacetime, bc: EmBC, z_grid: Iterable[float]) -> Profile:
    """Everywhere-finite Maxwell stress profile, plate self-energies removed.

    Subtracting from the two-plate tensor the single-plate |z|^-D tails
    of both plates (both sides each) leaves a piecewise expression that
    is finite for all z: the interior bracket uses the subtracted
    profile function, the exterior branches are pure power laws with
    zero pressure. Grid points may lie outside the slab but must be
    finite and avoid z = 0 and z = L exactly, where the branch assignment
    is ambiguous; probe the two one-sided limits instead.
    """
    samples = tuple(
        ProfileSample(z, region, StressTensor(*tensor))
        for z, *tensor, region in core.subtracted_rows(st, bc, z_grid)
    )
    theory = Theory(TheoryKind.MAXWELL, bc)
    return Profile(spacetime=st, theory=theory, samples=samples)
