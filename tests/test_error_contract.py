"""The error contract over every public name of core, specfun and oracle.

Each call returns finite floats (a float, or a record or tuple of them)
or raises ValueError, of which DomainError, IllConditionedFitError and
InsufficientSamplesError are subclasses, and it emits no warning. One
property checks this for every name in the __all__ of the three modules,
each with its own argument strategy from REGISTRY; a public name with no
strategy fails it.
"""

import dataclasses
import math
import sys
import warnings
from enum import Enum

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from casimir_slab import core, oracle, specfun
from casimir_slab.core import EmBC, Region, ScalarBC, Spacetime, Theory, TheoryKind

MODULES = {"core": core, "specfun": specfun, "oracle": oracle}

NON_FINITE = st.sampled_from([math.inf, -math.inf, math.nan])
# Every double: the normals and subnormals of both signs, zeros, infinities, NaN.
FLOATS = st.floats()
FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
DIMS = st.integers(2, 24)
DIMS_OR_NON_FINITE = st.one_of(DIMS, NON_FINITE)
BCS = st.sampled_from([*ScalarBC, *EmBC])
KINDS = st.sampled_from(TheoryKind)
REGIONS = st.sampled_from(Region)
THEORIES = st.sampled_from(
    [Theory(k, b) for k in TheoryKind for b in (EmBC if k is TheoryKind.MAXWELL else ScalarBC)]
)
# Lengths that keep the amplitudes in range as often as not, and every other one.
LENGTHS = st.one_of(st.floats(1e-3, 1e3), POSITIVE)
SPACETIMES = st.builds(Spacetime, DIMS, LENGTHS)
BUDGET = oracle.SeriesBudget(max_images=10**3, max_modes=10**3)


def _args(*positional, **keyword):
    return st.tuples(st.tuples(*positional), st.fixed_dictionaries(keyword))


def _inside(low, high):
    # Every double, or one in [low, high], where the interesting cases are.
    return st.one_of(FLOATS, st.floats(low, high))


def _located_args(make, extra=()):
    # (st, bc, make(positions), *extra), the positions drawn as floats or as
    # fractions of st's L.
    def draw(space):
        positions = st.one_of(FLOATS, st.floats(0.0, 1.0).map(lambda f: f * space.plate_gap_L))
        return _args(st.just(space), BCS, make(positions), *extra)

    return SPACETIMES.flatmap(draw)


def _point(positions):
    return positions


def _grid(positions):
    return st.lists(positions, max_size=6)


def _enum_args(enum):
    return _args(st.one_of(st.sampled_from([m.value for m in enum]), st.text(max_size=4)))


TENSORS = st.builds(core.StressTensor, FINITE, FINITE, FINITE, FINITE)
SAMPLES = st.builds(core.ProfileSample, FINITE, REGIONS, TENSORS)
# A Profile rejects a sample holding a value that is not finite.
ANY_SAMPLES = st.builds(
    core.ProfileSample, FLOATS, REGIONS, st.builds(core.StressTensor, FLOATS, FLOATS, FLOATS, FLOATS)
)


def _cutoff_args(dims, lengths, exponents):
    # cutoff_casimir_energy's arguments with the default schedule scaled by 10^exponent.
    schedules = exponents.map(lambda e: oracle.default_cutoff_schedule(scale=10.0**e))
    return _args(dims, lengths, schedules, st.just(BUDGET))


SUPPORTED_DIMS = st.sampled_from([2, 3])


def _decades(low, high, step=1.0):
    # Exponents from low to high, each as likely: a float strategy on the
    # same range would mostly draw small ones.
    return st.sampled_from([low + step * k for k in range(int((high - low) / step) + 1)])


# cutoff_casimir_energy's arguments in six regimes: anything; D = 2, 3 with a
# schedule that fits, at every L from 0 to 1; at D = 2 and, as its own
# regime, at D = 3, the default schedule scaled by 1e-12 (the sums need more
# modes than the budget, or rounding swamps the constant) to 1e10 (the
# cutoffs are too large); scaled by 1e-300 to 1e-12, where the energies and
# the fit's powers leave the doubles; any cutoffs.
CUTOFF_ARGS = st.one_of(
    _cutoff_args(DIMS_OR_NON_FINITE, FLOATS, st.floats(-300.0, 300.0)),
    _cutoff_args(SUPPORTED_DIMS, _decades(-330, 0).map(lambda e: 10.0**e), st.just(1.1)),
    *(_cutoff_args(st.just(d), st.floats(1e-3, 1e3), _decades(-12, 10, 0.5)) for d in (2, 3)),
    _cutoff_args(SUPPORTED_DIMS, st.just(1.0), _decades(-300, -12)),
    _args(
        SUPPORTED_DIMS,
        st.just(1.0),
        st.lists(POSITIVE, min_size=4, max_size=8, unique=True).map(
            lambda alphas: oracle.CutoffSchedule(tuple(sorted(alphas, reverse=True)))
        ),
        st.just(BUDGET),
    ),
)


@st.composite
def _profiles(draw):
    # Subtracted profiles with enough uniform interior samples to integrate,
    # some exterior ones anywhere, and perhaps one far sample or one extreme
    # t00. A Profile holds finite values only (core.Profile's own entry).
    space = Spacetime(draw(st.integers(3, 24)), draw(LENGTHS))
    length = space.plate_gap_L
    n = draw(st.sampled_from([255, 256, 257, 300]))
    grid = [length * (i + 0.5) / n for i in range(n)]
    grid += draw(st.lists(st.one_of(FLOATS, st.floats(-3.0, 4.0).map(lambda f: f * length))))
    try:
        profile = core.subtracted_profile(space, draw(st.sampled_from(EmBC)), grid)
    except ValueError:
        assume(False)
    samples = list(profile.samples)
    change = draw(st.sampled_from(["none", "left-far", "t00"]))
    if change == "left-far":
        far = -sys.float_info.max
        assume(samples[0].z > far)
        samples.insert(0, core.ProfileSample(far, Region.LEFT_EXTERIOR, samples[0].tensor))
    elif change == "t00":
        i = draw(st.integers(0, len(samples) - 1))
        samples[i] = dataclasses.replace(
            samples[i], tensor=dataclasses.replace(samples[i].tensor, t00=draw(FINITE))
        )
    return core.Profile(space, profile.theory, tuple(samples))


# One strategy of (args, kwargs) per public name. Records other than
# Profile hold the values they are given, so their own entries draw finite
# floats; a function that takes one meets non-finite values through it.
REGISTRY = {
    "core.ScalarBC": _enum_args(ScalarBC),
    "core.EmBC": _enum_args(EmBC),
    "core.TheoryKind": _enum_args(TheoryKind),
    "core.Region": _enum_args(Region),
    "core.Theory": _args(KINDS, BCS),
    "core.Spacetime": _args(st.one_of(DIMS_OR_NON_FINITE, FLOATS), FLOATS),
    "core.StressTensor": _args(FINITE, FINITE, FINITE, FINITE),
    "core.FieldFluctuations": _args(FINITE, FINITE, FINITE, FINITE),
    "core.ProfileSample": _args(FINITE, REGIONS, TENSORS),
    "core.Profile": _args(
        SPACETIMES, THEORIES, st.lists(st.one_of(SAMPLES, ANY_SAMPLES), max_size=4).map(tuple)
    ),
    "core.base_energy_density": _args(SPACETIMES),
    "core.total_energy_per_area": _args(SPACETIMES, THEORIES),
    "core.pressure": _args(SPACETIMES, THEORIES),
    "core.f_profile": _args(SPACETIMES, _inside(0.0, 1.0)),
    "core.f_tilde": _args(SPACETIMES, _inside(0.0, 1.0)),
    "core.F_theta": _args(_inside(0.0, math.pi)),
    "core.scalar_energy_density": _located_args(_point),
    "core.scalar_stress": _located_args(_point, (st.booleans(),)),
    "core.scalar_stress_rows": _located_args(_grid, (st.booleans(),)),
    "core.em_fluctuations": _located_args(_point),
    "core.em_fluctuations_rows": _located_args(_grid),
    "core.em_stress": _located_args(_point),
    "core.em_stress_rows": _located_args(_grid),
    "core.single_plate_stress": _args(DIMS_OR_NON_FINITE, BCS, FLOATS),
    "core.subtracted_profile": _located_args(_grid),
    "core.subtracted_rows": _located_args(_grid),
    "core.field_invariant": _args(
        st.builds(core.FieldFluctuations, FLOATS, FLOATS, FLOATS, FLOATS), DIMS_OR_NON_FINITE
    ),
    "specfun.gamma": _args(FLOATS),
    "specfun.riemann_zeta": _args(FLOATS),
    "specfun.hurwitz_zeta": _args(_inside(1.0, 40.0), FLOATS),
    "specfun.cot_derivative": _args(
        st.one_of(st.integers(-2, 170), FLOATS), _inside(0.0, math.pi)
    ),
    # Floats too: a NaN or infinite budget was once kept, and a finite float
    # one made the sums raise TypeError.
    "oracle.SeriesBudget": _args(*[st.one_of(st.integers(max_value=10**3), FLOATS)] * 2),
    "oracle.CutoffSchedule": _args(
        st.one_of(st.lists(FLOATS, max_size=8), st.lists(st.one_of(POSITIVE, NON_FINITE), min_size=4, max_size=8, unique=True).map(
            lambda alphas: sorted(alphas, reverse=True)
        )).map(tuple)
    ),
    "oracle.default_cutoff_schedule": _args(scale=FLOATS),
    "oracle.green_closed": _args(FLOATS, _inside(0.0, 1.0), _inside(0.0, 1.0), _inside(0.5, 2.0)),
    "oracle.green_mode_sum": _args(
        FLOATS, _inside(0.0, 1.0), _inside(0.0, 1.0), _inside(0.5, 2.0), BCS, st.just(BUDGET)
    ),
    "oracle.image_profile_sum": _args(
        st.one_of(DIMS_OR_NON_FINITE, st.floats(2.0, 1100.0)), _inside(0.0, 1.0), st.just(BUDGET)
    ),
    "oracle.cutoff_casimir_energy": CUTOFF_ARGS,
    "oracle.ProfileEnergy": _args(FINITE, FINITE, FINITE),
    "oracle.profile_energy_integral": _args(_profiles()),
}

PUBLIC = [f"{module}.{name}" for module, mod in MODULES.items() for name in mod.__all__]


def _assert_finite(value):
    """Every float in value, a float or a record or tuple holding floats, is finite."""
    if isinstance(value, float):
        assert math.isfinite(value), value
    elif isinstance(value, (tuple, list)):
        for item in value:
            _assert_finite(item)
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            _assert_finite(getattr(value, field.name))
    elif isinstance(value, core._Value):
        for name in value.__slots__:
            _assert_finite(getattr(value, name))
    else:
        assert isinstance(value, (int, Enum)), value


@pytest.mark.parametrize("name", sorted(set(PUBLIC) | set(REGISTRY)))
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_public_name_returns_finite_values_or_raises_value_error(name, data):
    assert name in PUBLIC, f"{name} has a strategy but is not public"
    assert name in REGISTRY, f"{name} has no argument strategy"
    module, attr = name.split(".")
    args, kwargs = data.draw(REGISTRY[name], label="args, kwargs")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = getattr(MODULES[module], attr)(*args, **kwargs)
        except ValueError:
            return
    _assert_finite(result)
