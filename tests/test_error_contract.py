"""The error contract over every public name of core, specfun and oracle.

Each call returns finite floats (a float, or a record or tuple of them)
or raises ValueError, of which DomainError is a subclass, and it emits
no warning. One property checks this for every name in the __all__ of
the three modules, each with its own argument strategy from REGISTRY; a
public name with no strategy fails it.
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
from casimir_slab.errors import DomainError

MODULES = {"core": core, "specfun": specfun, "oracle": oracle}

NON_FINITE = st.sampled_from([math.inf, -math.inf, math.nan])
# Every double: the normals and subnormals of both signs, zeros, infinities, NaN.
FLOATS = st.floats()
FINITE = st.floats(allow_nan=False, allow_infinity=False)
# Ints beyond the doubles, from 2^1024 to about 10^5000, of either sign; float()
# of one raises OverflowError, and str() of one over 4300 digits ValueError.
HUGE_INTS = st.builds(
    lambda sign, bits, low: sign * (2**bits + low),
    st.sampled_from([1, -1]),
    st.integers(1024, 16609),
    st.integers(0, 2**64),
)
# Every double, and an int beyond them.
NUMBERS = st.one_of(FLOATS, HUGE_INTS)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
# Integral floats too: cutoff_casimir_energy once raised TypeError on D = 2.0.
DIMS = st.one_of(st.integers(2, 24), st.integers(2, 24).map(float))
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
# Term counts the series reject: integers out of [10^3, 2^32], up to 10^400,
# and every double. No large valid count is drawn: 2^32 Green modes take 85 s.
BAD_COUNTS = st.one_of(st.integers(max_value=999), st.integers(2**32 + 1, 10**400), FLOATS)


def _args(*positional, **keyword):
    return st.tuples(st.tuples(*positional), st.fixed_dictionaries(keyword))


def _counted_args(*positional):
    # positional and then a count: 10^3, with which the other arguments
    # reach the domain checks, about as often as one of BAD_COUNTS.
    return st.one_of(_args(*positional, st.just(1000)), _args(*positional, BAD_COUNTS))


def _inside(low, high):
    # Every double or a huge int, or a double in [low, high], where the
    # interesting cases are.
    return st.one_of(NUMBERS, st.floats(low, high))


def _located_args(make, extra=()):
    # (st, bc, make(positions), *extra), the positions drawn as floats or as
    # fractions of st's L.
    def draw(space):
        positions = st.one_of(NUMBERS, st.floats(0.0, 1.0).map(lambda f: f * space.plate_gap_L))
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
    core.ProfileSample, NUMBERS, REGIONS, st.builds(core.StressTensor, NUMBERS, FLOATS, FLOATS, FLOATS)
)


def _cutoff_args(dims, lengths, exponents):
    # cutoff_casimir_energy's arguments with the cutoffs scaled by 10^exponent.
    return _args(dims, lengths, scale=exponents.map(lambda e: 10.0**e))


SUPPORTED_DIMS = st.sampled_from([2, 3, 2.0, 3.0])


def _decades(low, high, step=1.0):
    # Exponents from low to high, each as likely: a float strategy on the
    # same range would mostly draw small ones.
    return st.sampled_from([low + step * k for k in range(int((high - low) / step) + 1)])


# cutoff_casimir_energy's arguments in five regimes: anything, every double
# or a huge int for L and the scale; D = 2, 3 with a scale that fits, at every L from 0 to
# 1; at D = 2 and, as its own regime, at D = 3, scales from 1e-12 (the sums
# need more modes than the cap, or rounding swamps the constant) to 1e10
# (above the largest scale); scales from 1e-300 to 1e-12, where the
# energies and the fit's powers leave the doubles.
CUTOFF_ARGS = st.one_of(
    _args(st.one_of(DIMS_OR_NON_FINITE, HUGE_INTS), NUMBERS, scale=NUMBERS),
    _cutoff_args(SUPPORTED_DIMS, _decades(-330, 0).map(lambda e: 10.0**e), st.just(1.1)),
    *(_cutoff_args(st.just(d), st.floats(1e-3, 1e3), _decades(-12, 10, 0.5)) for d in (2, 3)),
    _cutoff_args(SUPPORTED_DIMS, st.just(1.0), _decades(-300, -12)),
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
    "core.Spacetime": _args(st.one_of(DIMS_OR_NON_FINITE, NUMBERS), NUMBERS),
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
    "core.single_plate_stress": _args(st.one_of(DIMS_OR_NON_FINITE, HUGE_INTS), BCS, NUMBERS),
    "core.subtracted_profile": _located_args(_grid),
    "core.subtracted_rows": _located_args(_grid),
    "core.field_invariant": _args(
        st.builds(core.FieldFluctuations, NUMBERS, NUMBERS, NUMBERS, NUMBERS),
        st.one_of(DIMS_OR_NON_FINITE, HUGE_INTS),
    ),
    "specfun.riemann_zeta": _args(NUMBERS),
    "specfun.hurwitz_zeta": _args(_inside(1.0, 40.0), NUMBERS),
    "specfun.cot_derivative": _args(
        st.one_of(st.integers(-2, 170), NUMBERS), _inside(0.0, math.pi)
    ),
    "oracle.green_closed": _args(NUMBERS, _inside(0.0, 1.0), _inside(0.0, 1.0), _inside(0.5, 2.0)),
    # Counts include every double: a NaN or infinite one was once kept, and a
    # finite float one made the sums raise TypeError. 10^400 was once kept,
    # and a sum then raised OverflowError.
    "oracle.green_mode_sum": _counted_args(
        NUMBERS, _inside(0.0, 1.0), _inside(0.0, 1.0), _inside(0.5, 2.0), BCS
    ),
    "oracle.image_profile_sum": _counted_args(
        st.one_of(DIMS_OR_NON_FINITE, st.floats(2.0, 1100.0), HUGE_INTS), _inside(0.0, 1.0)
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


def _huge_int_cases(big):
    # (call, error type, message) for calls that pass the int big, beyond the
    # doubles, as a position, a field value, kbar, L, a scale, an order or D.
    shown = f"an integer of {big.bit_length()} bits"
    negative = f"a negative integer of {big.bit_length()} bits"
    space = Spacetime(6, 1.0)
    metallic = EmBC.METALLIC
    small = core.FieldFluctuations(0.1, 0.2, 0.3, 0.4)
    sample = core.ProfileSample(big, Region.RIGHT_EXTERIOR, core.StressTensor(0.0, 0.0, 0.0, 0.0))
    outside = f"z={shown} is on or outside the plates; densities diverge at z=0 and z=L"
    overflow = "a result overflows a double (small length or z near a plate)"
    green = "requires kbar > 0, L > 0 and a finite kbar L"
    return [
        (lambda: Spacetime(4, big), ValueError, f"plate_gap_L must be positive, got {shown}"),
        (lambda: Spacetime(big), ValueError, f"dim_D must be an integer in [2, 24], got {shown}"),
        (lambda: core.f_profile(space, big), DomainError,
         f"f_profile: x={shown} is on a plate; the image sum diverges"),
        (lambda: core.f_tilde(space, big), DomainError, f"f_tilde: x={shown} outside [0, 1]"),
        (lambda: core.F_theta(big), DomainError, f"F_theta: theta={shown} outside (0, pi)"),
        (lambda: core.em_stress(space, metallic, big), DomainError, outside),
        (lambda: core.scalar_stress(space, ScalarBC.NEUMANN, big), DomainError, outside),
        (lambda: core.em_fluctuations_rows(space, metallic, [0.5, big]), DomainError, outside),
        (lambda: core.subtracted_rows(space, metallic, [0.5, big]), DomainError,
         f"subtracted_profile: grid point z={shown} lies beyond the doubles"),
        (lambda: core.subtracted_profile(space, metallic, [-big, 0.5]), DomainError,
         f"subtracted_profile: grid point z={negative} lies beyond the doubles"),
        (lambda: core.single_plate_stress(6, metallic, big), DomainError,
         f"length {shown} at D=6: the amplitude gamma(D/2)/((4 pi)^(D/2) length^D) "
         "is not a finite positive double"),
        (lambda: core.field_invariant(dataclasses.replace(small, ez2=big), 6), DomainError,
         f"D=6: {overflow}"),
        (lambda: core.field_invariant(small, big), DomainError, f"D={shown}: {overflow}"),
        (lambda: core.Profile(space, Theory(TheoryKind.MAXWELL, metallic), (sample,)), ValueError,
         f"profile sample at z={shown} is not a double"),
        (lambda: oracle.green_closed(big, 0.3, 0.4, 1.0), DomainError, f"green_closed: {green}"),
        (lambda: oracle.green_closed(1e-300, 0.3, 0.4, big), DomainError, f"green_closed: {green}"),
        (lambda: oracle.green_mode_sum(big, 0.3, 0.4, 1.0, ScalarBC.DIRICHLET, 1000), DomainError,
         f"green_mode_sum: {green}"),
        (lambda: oracle.green_mode_sum(1.0, 0.3, 0.4, big, ScalarBC.NEUMANN, 1000), DomainError,
         f"green_mode_sum: {green}"),
        (lambda: oracle.image_profile_sum(-big, 0.3, 1000), DomainError,
         f"image_profile_sum: requires a finite D >= 2, got {negative}"),
        (lambda: oracle.cutoff_casimir_energy(2, big), DomainError,
         f"cutoff_casimir_energy: L={shown} puts L^-(D-1) out of the normal range"),
        (lambda: oracle.cutoff_casimir_energy(2, 1.0, scale=big), DomainError,
         f"cutoff_casimir_energy: requires 0 < scale <= 16, got {shown}"),
        (lambda: specfun.cot_derivative(big, 1.0), DomainError,
         f"cot_derivative: order must be an integer in [1, 163], got {shown}"),
        (lambda: specfun.cot_derivative(3, big), DomainError,
         f"cot_derivative: theta must lie in (0, pi), got {shown}"),
    ]


@pytest.mark.parametrize("big", [2**1024, 10**400, 10**5000], ids=["2^1024", "10^400", "10^5000"])
def test_huge_ints_raise_errors_that_name_the_argument(big):
    # Once a bare OverflowError from float(), or, over 4300 digits, the
    # ValueError of str() in place of the message.
    for call, error, message in _huge_int_cases(big):
        with pytest.raises(ValueError) as info:
            call()
        assert type(info.value) is error and str(info.value) == message, message
