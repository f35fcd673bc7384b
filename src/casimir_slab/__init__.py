"""Vacuum stress-energy between parallel hyperplanes in D dimensions.

Layers:

* ``specfun``: the special functions every closed form reduces to.
* ``core``: regularized energies, pressures, field fluctuations and
  stress-tensor profiles for scalar and Maxwell fields.
* ``records``: the result records (``StressTensor``, ``FieldFluctuations``,
  ``ProfileSample``, ``Profile``) and the one-point views that return
  them; loaded on first use of one of these names, here or in ``core``.
* ``oracle``: independent brute-force series evaluators that validate
  the closed forms.
* ``cli``: a reproducible command-line front end with CSV/JSON output.
"""

from . import core
from .core import (
    EmBC,
    Region,
    ScalarBC,
    Spacetime,
    Theory,
    TheoryKind,
    F_theta,
    base_energy_density,
    f_profile,
    f_tilde,
    field_invariant,
    pressure,
    scalar_energy_density,
    total_energy_per_area,
)
from .errors import DomainError
from .specfun import cot_derivative, hurwitz_zeta, riemann_zeta

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "DomainError",
    "riemann_zeta",
    "hurwitz_zeta",
    "cot_derivative",
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
    "em_fluctuations",
    "em_stress",
    "single_plate_stress",
    "f_tilde",
    "subtracted_profile",
    "field_invariant",
]


def __getattr__(name: str) -> object:
    # The result records and their views load on first use, as in core.
    if name not in core._RECORDS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(core, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *core._RECORDS})
