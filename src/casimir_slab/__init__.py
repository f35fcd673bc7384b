"""Vacuum stress-energy between parallel hyperplanes in D dimensions.

Layers:

* ``specfun``: the special functions every closed form reduces to.
* ``core``: regularized energies, pressures, field fluctuations and
  stress-tensor profiles for scalar and Maxwell fields.
* ``oracle``: independent brute-force series evaluators that validate
  the closed forms.
* ``cli``: a reproducible command-line front end with CSV/JSON output.
"""

from .core import (
    EmBC,
    FieldFluctuations,
    Profile,
    ProfileSample,
    Region,
    ScalarBC,
    Spacetime,
    StressTensor,
    Theory,
    TheoryKind,
    F_theta,
    base_energy_density,
    em_fluctuations,
    em_stress,
    f_profile,
    f_tilde,
    field_invariant,
    pressure,
    scalar_energy_density,
    scalar_stress,
    single_plate_stress,
    subtracted_profile,
    total_energy_per_area,
)
from .errors import DomainError, IllConditionedFitError, InsufficientSamplesError
from .specfun import cot_derivative, gamma, hurwitz_zeta, riemann_zeta

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "DomainError",
    "IllConditionedFitError",
    "InsufficientSamplesError",
    "gamma",
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
