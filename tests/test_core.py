"""Core physics tests: energies, pressures, stress tensors, profiles."""

import dataclasses
import math
import os
import subprocess
import sys
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from casimir_slab import core, specfun
from casimir_slab.core import (
    EmBC,
    Region,
    ScalarBC,
    Spacetime,
    Theory,
    TheoryKind,
)
from casimir_slab.errors import DomainError

PI = math.pi

MAXWELL_METALLIC = Theory(TheoryKind.MAXWELL, EmBC.METALLIC)
MAXWELL_MIT = Theory(TheoryKind.MAXWELL, EmBC.MIT)
SCALAR_D = Theory(TheoryKind.SCALAR_CANONICAL, ScalarBC.DIRICHLET)
SCALAR_N = Theory(TheoryKind.SCALAR_CANONICAL, ScalarBC.NEUMANN)
IMPROVED_D = Theory(TheoryKind.SCALAR_IMPROVED, ScalarBC.DIRICHLET)


def rel_err(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


# ------------------------------------------------------------------ types


def test_spacetime_validation():
    with pytest.raises(ValueError):
        Spacetime(1, 1.0)
    with pytest.raises(ValueError):
        Spacetime(25, 1.0)
    with pytest.raises(ValueError):
        Spacetime(4, 0.0)
    with pytest.raises(ValueError):
        Spacetime(4, -1.0)


def test_validation_messages():
    for args, message in [
        ((1, 1.0), "dim_D must be an integer in [2, 24], got 1"),
        ((25,), "dim_D must be an integer in [2, 24], got 25"),
        ((4.5, 1.0), "dim_D must be an integer in [2, 24], got 4.5"),
        ((4, 0.0), "plate_gap_L must be positive, got 0.0"),
        ((4, -1.0), "plate_gap_L must be positive, got -1.0"),
        ((4, math.inf), "plate_gap_L must be positive, got inf"),
        ((4, math.nan), "plate_gap_L must be positive, got nan"),
    ]:
        with pytest.raises(ValueError) as info:
            Spacetime(*args)
        assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        Theory(TheoryKind.MAXWELL, ScalarBC.DIRICHLET)
    assert str(info.value) == "Maxwell theory requires an EmBC boundary condition"
    with pytest.raises(ValueError) as info:
        Theory(TheoryKind.SCALAR_IMPROVED, EmBC.MIT)
    assert str(info.value) == "scalar theories require a ScalarBC boundary condition"


def test_spacetime_and_theory_are_values():
    st = Spacetime(dim_D=6, plate_gap_L=2.5)  # keywords, as in the README example
    assert (st.dim_D, st.plate_gap_L) == (6, 2.5)
    assert Spacetime(dim_D=6).plate_gap_L == 1.0
    assert Spacetime(6, plate_gap_L=2.5) == st
    th = Theory(kind=TheoryKind.MAXWELL, bc=EmBC.MIT)
    assert (th.kind, th.bc) == (TheoryKind.MAXWELL, EmBC.MIT)
    assert Theory(TheoryKind.MAXWELL, bc=EmBC.MIT) == th

    assert st == Spacetime(6, 2.5) and not st != Spacetime(6, 2.5)
    assert st != Spacetime(6, 2.0) and st != Spacetime(7, 2.5)
    assert th != Theory(TheoryKind.MAXWELL, EmBC.METALLIC)
    assert th != Theory(TheoryKind.SCALAR_CANONICAL, ScalarBC.NEUMANN)
    for other in ((6, 2.5), [6, 2.5], None, th):
        assert st != other and not st == other
    assert th != (TheoryKind.MAXWELL, EmBC.MIT)

    assert hash(st) == hash((6, 2.5)) == hash(Spacetime(6, 2.5))
    assert hash(th) == hash((TheoryKind.MAXWELL, EmBC.MIT))
    assert len({st, Spacetime(6, 2.5), th, Theory(TheoryKind.MAXWELL, EmBC.MIT)}) == 2
    assert repr(st) == "Spacetime(dim_D=6, plate_gap_L=2.5)"
    assert repr(Spacetime(4)) == "Spacetime(dim_D=4, plate_gap_L=1.0)"
    assert repr(th) == "Theory(kind=<TheoryKind.MAXWELL: 'maxwell'>, bc=<EmBC.MIT: 'mit'>)"
    match st, th:
        case Spacetime(6, length), Theory(TheoryKind.MAXWELL, bc):
            assert (length, bc) == (2.5, EmBC.MIT)
        case _:
            raise AssertionError("no positional class pattern matched")


def test_spacetime_and_theory_are_immutable():
    st = Spacetime(6, 2.5)
    th = Theory(TheoryKind.SCALAR_CANONICAL, ScalarBC.DIRICHLET)
    for obj, name, value in [
        (st, "dim_D", 7),
        (st, "plate_gap_L", 1.0),
        (st, "extra", 1),
        (th, "kind", TheoryKind.SCALAR_IMPROVED),
        (th, "bc", ScalarBC.NEUMANN),
    ]:
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert st == Spacetime(6, 2.5)
    assert th == Theory(TheoryKind.SCALAR_CANONICAL, ScalarBC.DIRICHLET)


def test_spacetime_and_theory_copy_and_pickle():
    import copy
    import pickle

    from casimir_slab import oracle, verify

    for obj in (
        Spacetime(6, 2.5),
        Spacetime(24),
        Theory(TheoryKind.MAXWELL, EmBC.MIT),
        # the values of oracle and verify are core._Value too
        oracle.SeriesBudget(),
        oracle.SeriesBudget(10**5, max_modes=2000),
        oracle.default_cutoff_schedule(scale=6.0),
        oracle.CutoffSchedule([0.014, 0.01, 0.007, 0.001]),
        oracle.ProfileEnergy(1.5, -0.25, total=1.25),
        verify.CheckResult("check", 1e-12, 1e-10),
    ):
        for twin in (
            pickle.loads(pickle.dumps(obj)),
            pickle.loads(pickle.dumps(obj, protocol=0)),
            copy.copy(obj),
            copy.deepcopy(obj),
            copy.deepcopy([obj, obj])[1],
        ):
            assert type(twin) is type(obj)
            assert twin == obj and hash(twin) == hash(obj) and repr(twin) == repr(obj)
    th = copy.deepcopy(Theory(TheoryKind.MAXWELL, EmBC.MIT))
    assert th.kind is TheoryKind.MAXWELL and th.bc is EmBC.MIT


def _calls_on_dim(dim):
    # (name, call) of every public function of core at the dimension dim.
    st = Spacetime(dim, 0.8)
    theories = (SCALAR_N, IMPROVED_D, MAXWELL_MIT)
    zs = [0.05, 0.3, 0.79]
    wide = [-0.5, *zs, 1.7]
    fl = core.em_fluctuations(Spacetime(max(int(dim), 3), 0.8), EmBC.MIT, 0.3)
    return [
        ("base_energy_density", lambda: core.base_energy_density(st)),
        ("total_energy_per_area", lambda: [core.total_energy_per_area(st, th) for th in theories]),
        ("pressure", lambda: [core.pressure(st, th) for th in theories]),
        ("f_profile", lambda: core.f_profile(st, 0.3)),
        ("F_theta", lambda: core.F_theta(0.1 * dim)),
        ("scalar_energy_density", lambda: core.scalar_energy_density(st, ScalarBC.NEUMANN, 0.3)),
        ("scalar_stress", lambda: core.scalar_stress(st, ScalarBC.DIRICHLET, 0.3, True)),
        ("scalar_stress_rows", lambda: core.scalar_stress_rows(st, ScalarBC.DIRICHLET, zs)),
        ("em_fluctuations", lambda: core.em_fluctuations(st, EmBC.METALLIC, 0.3)),
        ("em_fluctuations_rows", lambda: core.em_fluctuations_rows(st, EmBC.MIT, zs)),
        ("em_stress", lambda: core.em_stress(st, EmBC.MIT, 0.3)),
        ("em_stress_rows", lambda: core.em_stress_rows(st, EmBC.METALLIC, zs)),
        ("single_plate_stress", lambda: core.single_plate_stress(dim, EmBC.METALLIC, -0.7)),
        ("f_tilde", lambda: core.f_tilde(st, 0.3)),
        ("subtracted_profile", lambda: core.subtracted_profile(st, EmBC.MIT, wide)),
        ("subtracted_rows", lambda: core.subtracted_rows(st, EmBC.METALLIC, wide)),
        ("field_invariant", lambda: core.field_invariant(fl, dim)),
    ]


def test_every_function_takes_an_integral_float_dimension():
    # repr tells apart every pair of doubles with different bits, and int from float.
    def outcome(call):
        try:
            return repr(call())
        except (DomainError, ValueError) as exc:
            return f"{type(exc).__name__}: {exc}"

    public = {name for name in core.__all__ if not isinstance(getattr(core, name), type)}
    for dim in range(2, 25):
        assert Spacetime(float(dim)) == Spacetime(dim)
        assert repr(Spacetime(float(dim)).dim_D) == repr(dim)
        calls = _calls_on_dim(dim)
        assert {name for name, _ in calls} == public
        floats = {name: outcome(call) for name, call in _calls_on_dim(float(dim))}
        for name, call in calls:
            assert floats[name] == outcome(call), (dim, name)
            assert dim < 3 or not floats[name].startswith(("DomainError", "ValueError"))


# Checks, in a fresh interpreter, that the names of the records module load
# on first use from the package and from core, and prints the fields of the
# records that scalar results are compared by.
_RECORDS_PROBE = """
import sys
import casimir_slab
from casimir_slab import core
assert "casimir_slab.records" not in sys.modules
listed = {module: dir(module) for module in (casimir_slab, core)}
for module, names in listed.items():
    for name in module.__all__:
        assert name in names, name
        getattr(module, name)
    try:
        module.no_such_name
    except AttributeError as exc:
        assert "no_such_name" in str(exc)
    else:
        raise AssertionError("no AttributeError")
star = {}
exec("from casimir_slab import *", star)
assert set(casimir_slab.__all__) <= set(star)
records = sys.modules["casimir_slab.records"]
for name in core._RECORDS:
    assert star[name] is getattr(core, name) is getattr(records, name), name
import dataclasses
st = core.Spacetime(6, 0.8)
for record in (
    core.em_stress(st, core.EmBC.MIT, 0.3),
    core.scalar_stress(st, core.ScalarBC.NEUMANN, 0.3, improved=True),
    core.em_fluctuations(st, core.EmBC.METALLIC, 0.3),
):
    print(" ".join(dataclasses.asdict(record)))
"""


def test_records_load_on_first_use():
    src = os.path.dirname(os.path.dirname(core.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _RECORDS_PROBE],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "t00 tzz t_transverse trace",
        "t00 tzz t_transverse trace",
        "ez2 ei2 biz2 bij2",
    ]


def test_em_bc_scalar_mapping_is_fixed():
    assert EmBC.METALLIC.scalar_bc is ScalarBC.DIRICHLET
    assert EmBC.MIT.scalar_bc is ScalarBC.NEUMANN


def test_theory_bc_pairing_enforced():
    with pytest.raises(ValueError):
        Theory(TheoryKind.MAXWELL, ScalarBC.DIRICHLET)
    with pytest.raises(ValueError):
        Theory(TheoryKind.SCALAR_CANONICAL, EmBC.METALLIC)
    assert Theory(TheoryKind.MAXWELL, EmBC.MIT).scalar_bc is ScalarBC.NEUMANN


# Every public function that takes a boundary condition, called at z = 0.3 L
# (subtracted: also outside the slab). D = 4 takes the shortcuts that never
# use the sign: Maxwell and the single plate are constant or zero there.
_BC_TAKERS = {
    "scalar_energy_density": lambda st, bc: core.scalar_energy_density(st, bc, 0.3),
    "scalar_stress": lambda st, bc: core.scalar_stress(st, bc, 0.3),
    "scalar_stress-improved": lambda st, bc: core.scalar_stress(st, bc, 0.3, improved=True),
    "scalar_stress_rows": lambda st, bc: core.scalar_stress_rows(st, bc, [0.3]),
    "scalar_stress_rows-improved": lambda st, bc: core.scalar_stress_rows(st, bc, [0.3], True),
    "em_stress": lambda st, bc: core.em_stress(st, bc, 0.3),
    "em_stress_rows": lambda st, bc: core.em_stress_rows(st, bc, [0.3]),
    "em_fluctuations": lambda st, bc: core.em_fluctuations(st, bc, 0.3),
    "em_fluctuations_rows": lambda st, bc: core.em_fluctuations_rows(st, bc, [0.3]),
    "single_plate_stress": lambda st, bc: core.single_plate_stress(st.dim_D, bc, 0.3),
    "subtracted_profile": lambda st, bc: core.subtracted_profile(st, bc, [-0.5, 0.3, 1.5]),
    "subtracted_rows": lambda st, bc: core.subtracted_rows(st, bc, [-0.5, 0.3, 1.5]),
}


@pytest.mark.parametrize("name", sorted(_BC_TAKERS))
def test_invalid_boundary_condition_raises_value_error(name):
    # An invalid bc once gave the other condition's numbers.
    call = _BC_TAKERS[name]
    for dim in (4, 6):
        st = Spacetime(dim, 1.0)
        call(st, EmBC.METALLIC if name.startswith(("em", "single", "sub")) else ScalarBC.NEUMANN)
        for bad in ("metallic", None, 1.0):
            with pytest.raises(ValueError, match=f"got {bad!r}$"):
                call(st, bad)


def test_boundary_condition_signs():
    # Dirichlet and metallic take the upper sign, Neumann and MIT the lower.
    st = Spacetime(6, 1.0)
    upper = core.em_stress_rows(st, EmBC.METALLIC, [0.3])
    lower = core.em_stress_rows(st, EmBC.MIT, [0.3])
    assert upper != lower
    assert core.em_stress_rows(st, ScalarBC.DIRICHLET, [0.3]) == upper
    assert core.em_stress_rows(st, ScalarBC.NEUMANN, [0.3]) == lower
    t00 = core.scalar_energy_density
    assert t00(st, ScalarBC.DIRICHLET, 0.3) == t00(st, EmBC.METALLIC, 0.3)
    assert t00(st, ScalarBC.NEUMANN, 0.3) == t00(st, EmBC.MIT, 0.3)
    assert t00(st, ScalarBC.DIRICHLET, 0.3) != t00(st, ScalarBC.NEUMANN, 0.3)


def test_profile_requires_increasing_grid():
    st4 = Spacetime(4, 1.0)
    prof = core.subtracted_profile(st4, EmBC.METALLIC, [0.4, 0.2, 0.6])
    assert [s.z for s in prof.samples] == [0.2, 0.4, 0.6]
    tensor = prof.samples[0].tensor
    with pytest.raises(ValueError):
        core.Profile(
            spacetime=st4,
            theory=MAXWELL_METALLIC,
            samples=(
                core.ProfileSample(0.4, Region.INTERIOR, tensor),
                core.ProfileSample(0.2, Region.INTERIOR, tensor),
            ),
        )


def test_profile_rejects_non_finite_samples():
    prof = core.subtracted_profile(Spacetime(6, 1.0), EmBC.METALLIC, [-0.5, 0.2, 0.4, 1.5])
    first, *rest = prof.samples
    tensor = first.tensor
    bad_samples = [dataclasses.replace(first, z=z) for z in (-math.inf, math.nan)]
    bad_samples += [
        dataclasses.replace(first, tensor=dataclasses.replace(tensor, **{name: value}))
        for name in ("t00", "tzz", "t_transverse", "trace")
        for value in (math.inf, -math.inf, math.nan)
    ]
    for bad in bad_samples:
        with pytest.raises(ValueError):
            core.Profile(prof.spacetime, prof.theory, (bad, *rest))
    last = dataclasses.replace(prof.samples[-1], z=math.inf)
    with pytest.raises(ValueError):
        core.Profile(prof.spacetime, prof.theory, (*prof.samples[:-1], last))
    assert core.Profile(prof.spacetime, prof.theory, prof.samples) == prof


def test_stress_tensor_trace_relation():
    for dim in range(3, 13):
        st = Spacetime(dim, 1.0)
        for tensor in (
            core.scalar_stress(st, ScalarBC.DIRICHLET, 0.3),
            core.scalar_stress(st, ScalarBC.NEUMANN, 0.3, improved=True),
            core.em_stress(st, EmBC.MIT, 0.3),
            core.single_plate_stress(dim, EmBC.METALLIC, 0.5),
        ):
            expected = tensor.t00 - (dim - 2) * tensor.t_transverse - tensor.tzz
            scale = max(abs(tensor.t00), abs(tensor.tzz), 1e-300)
            assert abs(tensor.trace - expected) <= 1e-10 * scale


# --------------------------------------------------------------- energies


def test_base_energy_density_d4():
    assert rel_err(core.base_energy_density(Spacetime(4, 1.0)), -PI**2 / 1440) < 1e-13


def test_base_energy_density_d2():
    assert rel_err(core.base_energy_density(Spacetime(2, 1.0)), -PI / 24) < 1e-13


def test_base_energy_density_length_scaling():
    e1 = core.base_energy_density(Spacetime(4, 1.0))
    e2 = core.base_energy_density(Spacetime(4, 2.0))
    assert rel_err(e2, e1 / 16.0) < 1e-13


@given(st.integers(min_value=2, max_value=24), st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=100)
def test_base_energy_density_negative_and_scaling(dim, length):
    e = core.base_energy_density(Spacetime(dim, length))
    assert e < 0.0
    e_unit = core.base_energy_density(Spacetime(dim, 1.0))
    assert rel_err(e, e_unit / length**dim) < 1e-12


def test_total_energy_values():
    st4 = Spacetime(4, 1.0)
    assert rel_err(core.total_energy_per_area(st4, SCALAR_D), -PI**2 / 1440) < 1e-13
    assert rel_err(core.total_energy_per_area(st4, MAXWELL_METALLIC), -PI**2 / 720) < 1e-13
    for length in (1.0, 1e-300, 1e300):
        assert core.total_energy_per_area(Spacetime(2, length), MAXWELL_METALLIC) == 0.0


def test_improved_energy_equals_canonical():
    for dim in (3, 4, 7):
        st = Spacetime(dim, 1.3)
        assert core.total_energy_per_area(st, IMPROVED_D) == core.total_energy_per_area(
            st, SCALAR_D
        )


def test_pressure_values():
    st4 = Spacetime(4, 1.0)
    assert rel_err(core.pressure(st4, MAXWELL_METALLIC), -PI**2 / 240) < 1e-13
    assert rel_err(core.pressure(st4, SCALAR_D), -PI**2 / 480) < 1e-13
    for length in (1.0, 1e-300, 1e300):
        assert core.pressure(Spacetime(2, length), MAXWELL_METALLIC) == 0.0


@pytest.mark.parametrize(
    "dim,length",
    [(24, 1e300), (24, 1e13), (22, 1e-15), (24, 1e-14), (2, 1e300), (3, 1e-300), (3, 1e-105)],
)
def test_unrepresentable_amplitude_raises_domain_error(dim, length):
    # L^D overflows, underflows to zero, or 1/L^D overflows: every closed
    # form that needs the amplitude raises DomainError, never a bare
    # OverflowError/ZeroDivisionError or a silent inf.
    st = Spacetime(dim, length)
    for fn in (
        lambda: core.base_energy_density(st),
        lambda: core.pressure(st, SCALAR_D),
        lambda: core.total_energy_per_area(st, IMPROVED_D),
        lambda: core.scalar_stress(st, ScalarBC.NEUMANN, 0.5 * length),
        lambda: core.single_plate_stress(max(dim, 3), EmBC.METALLIC, length),
    ):
        with pytest.raises(DomainError):
            fn()
    if dim >= 3:
        with pytest.raises(DomainError):
            core.em_stress(st, EmBC.MIT, 0.5 * length)
        with pytest.raises(DomainError):
            core.em_fluctuations(st, EmBC.METALLIC, 0.5 * length)
        with pytest.raises(DomainError):
            core.subtracted_profile(st, EmBC.METALLIC, [-length, 0.5 * length])


@pytest.mark.parametrize(
    "call",
    [
        lambda: core.base_energy_density(Spacetime(2, 2.2e-155)),
        lambda: core.pressure(Spacetime(24, 1e-13), MAXWELL_METALLIC),
        lambda: core.em_stress(Spacetime(24, 1e-12), EmBC.METALLIC, 1e-12 / 16),
        lambda: core.scalar_stress(Spacetime(24, 1e-12), ScalarBC.DIRICHLET, 1e-12 / 16),
        lambda: core.em_fluctuations(Spacetime(24, 1e-12), EmBC.MIT, 1e-12 / 16),
        lambda: core.subtracted_profile(Spacetime(24, 1e-13), EmBC.METALLIC, [0.5e-13]),
        lambda: core.single_plate_stress(24, EmBC.METALLIC, 1e-13),
        # (z/L)**-D itself overflows inside the Hurwitz sum
        lambda: core.f_profile(Spacetime(24, 1.0), 1e-20),
        lambda: core.em_stress(Spacetime(24, 1.0), EmBC.METALLIC, 1e-20),
        lambda: core.scalar_stress(Spacetime(24, 1.0), ScalarBC.NEUMANN, 1e-20),
        lambda: core.em_fluctuations(Spacetime(24, 1.0), EmBC.METALLIC, 1.0 - 1e-16),
        lambda: core.em_stress_rows(Spacetime(13, 2.0), EmBC.MIT, [1.0, 2e-30]),
    ],
    ids=[
        "e0", "pressure", "em_stress", "scalar_stress", "em_fluctuations", "subtracted", "single",
        "f_profile-tiny-x", "em_stress-tiny-x", "scalar_stress-tiny-x", "em_fluctuations-x-near-1",
        "em_stress_rows-tiny-x",
    ],
)
def test_overflowing_result_raises_domain_error(call):
    # The amplitude is representable but a reported value (e0 zeta(D),
    # the Maxwell pressure factor, f(z/L) near a plate) overflows.
    with pytest.raises(DomainError):
        call()


_CONTRACT_CALLS = {
    "em_stress": lambda st_, bc, z, improved: astuple(core.em_stress(st_, bc, z)),
    "scalar_stress": lambda st_, bc, z, improved: astuple(
        core.scalar_stress(st_, bc.scalar_bc, z, improved)
    ),
    "em_fluctuations": lambda st_, bc, z, improved: astuple(core.em_fluctuations(st_, bc, z)),
    "f_profile": lambda st_, bc, z, improved: (core.f_profile(st_, z / st_.plate_gap_L),),
}


def _normal(value):
    return sys.float_info.min <= abs(value) <= sys.float_info.max


@given(
    name=st.sampled_from(sorted(_CONTRACT_CALLS)),
    dim=st.integers(min_value=2, max_value=24),
    length=st.floats(min_value=1e-300, max_value=1e300),
    frac=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    bc=st.sampled_from(list(EmBC)),
    improved=st.booleans(),
)
@settings(max_examples=1000)
def test_error_contract_and_length_scaling(name, dim, length, frac, bc, improved):
    # Every call returns finite values or raises DomainError, never another
    # exception; and a density at L is the L = 1 density times L^-D.
    z = frac * length
    assume(0.0 < z < length)
    call = _CONTRACT_CALLS[name]
    try:
        got = call(Spacetime(dim, length), bc, z, improved)
    except DomainError:
        return
    assert all(map(math.isfinite, got)), got
    try:
        # the x = z/L the call at L used, so both calls see the same profile
        unit = call(Spacetime(dim, 1.0), bc, z / length, improved)
    except DomainError:
        return
    factor = 1 if name == "f_profile" else Fraction(length) ** -dim
    for value, unit_value in zip(got, unit):
        if _normal(value) and _normal(unit_value):
            want = Fraction(unit_value) * factor
            assert abs(Fraction(value) - want) <= abs(want) * Fraction(1e-12), (value, unit_value)


def _bits(values):
    return [float(v).hex() for v in values]


def test_scalar_functions_are_bitwise_views_of_the_grid_kernels():
    # A grid row must not depend on the other points of its grid.
    rng = np.random.default_rng(7)
    for _ in range(40):
        dim = int(rng.integers(3, 25))
        st = Spacetime(dim, float(10.0 ** rng.uniform(-2.0, 2.0)))
        zs = [float(z) for z in st.plate_gap_L * rng.uniform(1e-3, 1.0 - 1e-3, size=50)]
        ebc = (EmBC.METALLIC, EmBC.MIT)[int(rng.integers(2))]
        sbc = ebc.scalar_bc
        improved = bool(rng.integers(2))
        em = core.em_stress_rows(st, ebc, zs)
        scalar = core.scalar_stress_rows(st, sbc, zs, improved)
        canonical = core.scalar_stress_rows(st, sbc, zs)
        fluct = core.em_fluctuations_rows(st, ebc, zs)
        for i, z in enumerate(zs):
            assert _bits(em[i]) == _bits(astuple(core.em_stress(st, ebc, z)))
            assert _bits(scalar[i]) == _bits(astuple(core.scalar_stress(st, sbc, z, improved)))
            assert _bits(canonical[i][:1]) == _bits([core.scalar_energy_density(st, sbc, z)])
            assert _bits(fluct[i]) == _bits(astuple(core.em_fluctuations(st, ebc, z)))
        wide = [z - st.plate_gap_L for z in zs] + [z + st.plate_gap_L for z in zs] + zs
        rows = core.subtracted_rows(st, ebc, wide)
        for z, *tensor, region in rows:
            (sample,) = core.subtracted_profile(st, ebc, [z]).samples
            assert (sample.z, sample.region) == (z, region)
            assert _bits(tensor) == _bits(astuple(sample.tensor))


def test_subtracted_rows_keep_their_bits_on_numpy_scalars():
    # verify hands its grids over as Python floats (.tolist() keeps each value)
    rng = np.random.default_rng(11)
    for dim in range(3, 25):
        st = Spacetime(dim, float(10.0 ** rng.uniform(-1.0, 1.0)))
        length = st.plate_gap_L
        grid = np.concatenate(
            (
                -length * rng.uniform(0.01, 3.0, size=8),
                np.linspace(1e-8 * length, (1.0 - 1e-8) * length, 65),
                length * (1.0 + rng.uniform(0.01, 3.0, size=8)),
            )
        )
        for bc in (EmBC.METALLIC, EmBC.MIT):
            got = core.subtracted_rows(st, bc, grid)
            want = core.subtracted_rows(st, bc, grid.tolist())
            assert [row[-1] for row in got] == [row[-1] for row in want]
            assert [_bits(row[:-1]) for row in got] == [_bits(row[:-1]) for row in want]


def _reference_row(kind, st, bc, z):
    # The per-point formulas the grid kernels replaced, written out with
    # their original operand order; any reordering changes low bits.
    dim, length = st.dim_D, st.plate_gap_L
    hz = specfun.hurwitz_zeta
    scale, zeta = core._amplitude(dim, length)
    s = 1.0 if bc in (ScalarBC.DIRICHLET, EmBC.METALLIC) else -1.0
    x = z / length
    e0 = -(scale * zeta)
    if kind == "fluctuations":
        f = hz(float(dim), x) + hz(float(dim), 1.0 - x)
        ez2 = (dim - 2) * scale * (zeta + s * 0.5 * f)
        ei2 = -2.0 * scale * (zeta - s * 0.5 * f)
        return (ez2, ei2, -ez2, 0.0 if dim == 3 else -ei2)
    if kind == "scalar":
        f = hz(float(dim), x) + hz(float(dim), 1.0 - x)
        tzz = (dim - 1) * e0
        t00 = -scale * (zeta + s * (dim / 2.0 - 1.0) * f)
    elif kind == "maxwell":
        f = hz(float(dim), x) + hz(float(dim), 1.0 - x)
        tzz = ((dim - 2) * (dim - 1)) * e0
        coef = dim / 2.0 - 2.0
        t00 = (dim - 2) * e0 if coef == 0.0 else -(dim - 2) * scale * (zeta + s * coef * f)
    else:  # subtracted
        coef = dim / 2.0 - 2.0
        tzz = 0.0
        if z < 0.0:
            bracket = -s * coef * (length / (length - z)) ** dim
        elif z > length:
            bracket = -s * coef * (length / z) ** dim
        else:
            bracket = zeta + s * coef * (hz(float(dim), 1.0 + x) + hz(float(dim), 2.0 - x))
            tzz = ((dim - 2) * (dim - 1)) * -(scale * zeta)
        t00 = -(dim - 2) * scale * bracket
    return (t00 + 0.0, tzz + 0.0, -t00 + 0.0, (dim - 1) * t00 - tzz + 0.0)


def test_grid_kernels_keep_the_reference_arithmetic():
    rng = np.random.default_rng(11)
    for _ in range(40):
        dim = int(rng.integers(3, 25))
        st = Spacetime(dim, float(10.0 ** rng.uniform(-2.0, 2.0)))
        length = st.plate_gap_L
        zs = [float(z) for z in length * rng.uniform(1e-3, 1.0 - 1e-3, size=25)]
        ebc = (EmBC.METALLIC, EmBC.MIT)[int(rng.integers(2))]
        kernels = {
            "maxwell": core.em_stress_rows(st, ebc, zs),
            "scalar": core.scalar_stress_rows(st, ebc.scalar_bc, zs),
            "fluctuations": core.em_fluctuations_rows(st, ebc, zs),
        }
        for kind, rows in kernels.items():
            for z, row in zip(zs, rows):
                assert _bits(row) == _bits(_reference_row(kind, st, ebc, z)), (kind, dim, z)
        wide = [z - length for z in zs] + zs + [z + length for z in zs]
        for z, *tensor, _ in core.subtracted_rows(st, ebc, wide):
            assert _bits(tensor) == _bits(_reference_row("subtracted", st, ebc, z)), (dim, z)


def test_pressure_matches_energy_derivative():
    # central finite difference of the total energy, step 1e-6 L
    for dim in (3, 5, 8, 12):
        for th in (SCALAR_D, SCALAR_N, MAXWELL_METALLIC, IMPROVED_D):
            h = 1e-6
            fd = -(
                core.total_energy_per_area(Spacetime(dim, 1.0 + h), th)
                - core.total_energy_per_area(Spacetime(dim, 1.0 - h), th)
            ) / (2 * h)
            p = core.pressure(Spacetime(dim, 1.0), th)
            assert rel_err(fd, p) < 1e-8


# --------------------------------------------------------------- profiles


def test_f_profile_midpoint_d4():
    # pinned by the direct image sum (see test_oracle)
    assert rel_err(core.f_profile(Spacetime(4, 1.0), 0.5), PI**4 / 3) < 1e-13


def test_f_profile_quarter_point_vs_shape_factor():
    st4 = Spacetime(4, 1.0)
    want = (PI**4 / 3) * core.F_theta(PI / 4)
    assert rel_err(core.f_profile(st4, 0.25), want) < 1e-12
    assert rel_err(core.f_profile(st4, 0.25), 8 * PI**4 / 3) < 1e-12


@given(
    st.integers(min_value=2, max_value=12),
    st.floats(min_value=1e-3, max_value=0.999),
)
@settings(max_examples=200)
def test_f_profile_reflection_symmetry(dim, x):
    st = Spacetime(dim, 1.0)
    a = core.f_profile(st, x)
    b = core.f_profile(st, 1.0 - x)
    assert rel_err(a, b) < 1e-11


def test_f_profile_divergence_rate():
    st = Spacetime(6, 1.0)
    for x in (1e-2, 1e-3):
        assert rel_err(core.f_profile(st, x), x**-6.0) < 1e-2


@pytest.mark.parametrize("x", [0.0, 1.0, -0.2, 1.4])
def test_f_profile_domain(x):
    with pytest.raises(DomainError):
        core.f_profile(Spacetime(4, 1.0), x)


def test_shape_factor_values():
    assert core.F_theta(PI / 2) == 1.0
    assert rel_err(core.F_theta(PI / 4), 8.0) < 1e-13
    for theta in (0.0, PI, 1e-300, 5e-324, 1e-80):
        with pytest.raises(DomainError):
            core.F_theta(theta)
    # just above the overflow the value is still a finite double
    assert math.isfinite(core.F_theta(1.2e-77))
    assert rel_err(core.F_theta(1e-76), 3e304) < 1e-13


@given(st.floats(min_value=0.05, max_value=0.45))
@settings(max_examples=100)
def test_shape_factor_symmetry_and_minimum(frac):
    theta = PI * frac
    assert rel_err(core.F_theta(theta), core.F_theta(PI - theta)) < 1e-11
    assert core.F_theta(theta) >= 1.0


# --------------------------------------------------------- scalar density


def test_scalar_density_constant_at_d2():
    st2 = Spacetime(2, 1.0)
    for z in (0.1, 0.371, 0.5, 0.9):
        for bc in (ScalarBC.DIRICHLET, ScalarBC.NEUMANN):
            assert core.scalar_energy_density(st2, bc, z) == core.base_energy_density(st2)


def test_scalar_density_midpoint_d4():
    want = -(1 / (16 * PI**2)) * (PI**4 / 90 + PI**4 / 3)
    got = core.scalar_energy_density(Spacetime(4, 1.0), ScalarBC.DIRICHLET, 0.5)
    assert rel_err(got, want) < 1e-13


def test_scalar_density_neumann_sign_flip():
    st4 = Spacetime(4, 1.0)
    want = -(1 / (16 * PI**2)) * (PI**4 / 90 - PI**4 / 3)
    got = core.scalar_energy_density(st4, ScalarBC.NEUMANN, 0.5)
    assert rel_err(got, want) < 1e-13
    # exchange invariant: swapping bc flips only the profile term
    for z in (0.2, 0.44):
        zd = core.scalar_energy_density(st4, ScalarBC.DIRICHLET, z)
        zn = core.scalar_energy_density(st4, ScalarBC.NEUMANN, z)
        e0 = core.base_energy_density(st4)
        assert abs(zd + zn - 2 * e0) <= 1e-12 * max(abs(zd), abs(zn))


def test_scalar_density_on_plate_raises():
    st4 = Spacetime(4, 1.0)
    for z in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(DomainError):
            core.scalar_energy_density(st4, ScalarBC.DIRICHLET, z)


# ----------------------------------------------------------- scalar stress


def test_scalar_stress_improved_d4_values():
    t = core.scalar_stress(Spacetime(4, 1.0), ScalarBC.DIRICHLET, 0.77, improved=True)
    assert rel_err(t.t00, -PI**2 / 1440) < 1e-13
    assert rel_err(t.tzz, -PI**2 / 480) < 1e-13
    assert t.trace == 0.0


def test_scalar_stress_canonical_equals_improved_at_d2():
    st2 = Spacetime(2, 1.0)
    a = core.scalar_stress(st2, ScalarBC.DIRICHLET, 0.3)
    b = core.scalar_stress(st2, ScalarBC.DIRICHLET, 0.3, improved=True)
    assert a == b


def test_scalar_stress_canonical_t00_is_local_density():
    st4 = Spacetime(4, 1.0)
    for z in (0.25, 0.5, 0.9):
        t = core.scalar_stress(st4, ScalarBC.DIRICHLET, z)
        assert t.t00 == core.scalar_energy_density(st4, ScalarBC.DIRICHLET, z)
        assert t.t_transverse == -t.t00


def test_scalar_stress_tzz_constant_and_correct():
    for dim in range(2, 13):
        st = Spacetime(dim, 1.0)
        e0 = core.base_energy_density(st)
        zs = [(i + 0.5) / 64 for i in range(64)]
        for bc in (ScalarBC.DIRICHLET, ScalarBC.NEUMANN):
            tzzs = {core.scalar_stress(st, bc, z).tzz for z in zs}
            assert tzzs == {(dim - 1) * e0}


def test_improved_tensor_pattern_all_dims():
    for dim in range(3, 13):
        st = Spacetime(dim, 1.0)
        e0 = core.base_energy_density(st)
        t = core.scalar_stress(st, ScalarBC.NEUMANN, 0.123, improved=True)
        assert t.t00 == e0
        assert t.t_transverse == -e0
        assert t.tzz == (dim - 1) * e0
        assert t.trace == 0.0


# ----------------------------------------------------------- fluctuations


def test_em_fluctuations_d4_displays():
    st4 = Spacetime(4, 1.0)
    fl = core.em_fluctuations(st4, EmBC.METALLIC, 0.5)
    assert rel_err(fl.ez2, PI**2 / 45) < 1e-13
    assert rel_err(fl.ei2, 7 * PI**2 / 360) < 1e-13
    for zfrac in (0.25, 0.5, 0.75):
        fl = core.em_fluctuations(st4, EmBC.METALLIC, zfrac)
        theta = PI * zfrac
        assert rel_err(fl.ez2, (PI**2 / 48) * (core.F_theta(theta) + 1 / 15)) < 1e-10
        assert rel_err(fl.ei2, (PI**2 / 48) * (core.F_theta(theta) - 1 / 15)) < 1e-10


@given(
    st.integers(min_value=3, max_value=12),
    st.sampled_from([EmBC.METALLIC, EmBC.MIT]),
    st.floats(min_value=0.01, max_value=0.99),
)
@settings(max_examples=150)
def test_em_fluctuations_duality(dim, bc, z):
    fl = core.em_fluctuations(Spacetime(dim, 1.0), bc, z)
    assert fl.biz2 == -fl.ez2
    if dim == 3:
        assert fl.bij2 == 0.0
    else:
        assert fl.bij2 == -fl.ei2


def test_em_fluctuations_bc_flip_hits_only_profile_term():
    for dim in (4, 7):
        st = Spacetime(dim, 1.0)
        met = core.em_fluctuations(st, EmBC.METALLIC, 0.3)
        mit = core.em_fluctuations(st, EmBC.MIT, 0.3)
        base = -2 * (dim - 2) * core.base_energy_density(st)
        assert abs(met.ez2 + mit.ez2 - base) <= 1e-12 * max(abs(met.ez2), abs(mit.ez2))


def test_em_fluctuations_domain():
    with pytest.raises(DomainError):
        core.em_fluctuations(Spacetime(2, 1.0), EmBC.METALLIC, 0.5)
    with pytest.raises(DomainError):
        core.em_fluctuations(Spacetime(4, 1.0), EmBC.METALLIC, 0.0)


# -------------------------------------------------------------- em stress


def test_em_stress_d4_conformal_constancy():
    st4 = Spacetime(4, 1.0)
    values = {core.em_stress(st4, EmBC.METALLIC, z).t00 for z in np.linspace(0.05, 0.95, 19)}
    assert len(values) == 1
    assert rel_err(values.pop(), -PI**2 / 720) < 1e-13
    assert rel_err(core.em_stress(st4, EmBC.METALLIC, 0.3).tzz, -PI**2 / 240) < 1e-13


def test_em_stress_d6_midpoint_value():
    # -(1/(8 pi^3)) (zeta(6) + 126 zeta(6)) = -127 pi^3 / 7560, with the
    # image value 126 zeta(6) pinned by the direct sum in test_oracle
    got = core.em_stress(Spacetime(6, 1.0), EmBC.METALLIC, 0.5)
    assert rel_err(got.t00, -127 * PI**3 / 7560) < 1e-13


def test_em_stress_tzz_is_degenerate_scalar_pressure():
    for dim in range(3, 13):
        st = Spacetime(dim, 1.0)
        for bc in (EmBC.METALLIC, EmBC.MIT):
            em_tzz = core.em_stress(st, bc, 0.37).tzz
            sc_tzz = core.scalar_stress(st, bc.scalar_bc, 0.37).tzz
            assert rel_err(em_tzz, (dim - 2) * sc_tzz) < 1e-12


def test_em_stress_trace_identity():
    for dim in range(3, 11):
        st = Spacetime(dim, 1.0)
        for bc in (EmBC.METALLIC, EmBC.MIT):
            for z in (0.1, 0.3, 0.5):
                t = core.em_stress(st, bc, z)
                fl = core.em_fluctuations(st, bc, z)
                rhs = (dim / 4 - 1) * core.field_invariant(fl, dim)
                scale = max(abs(t.t00), abs(t.tzz), 1e-300)
                assert abs(t.trace - rhs) <= 1e-10 * scale


def test_em_stress_domain():
    with pytest.raises(DomainError):
        core.em_stress(Spacetime(2, 1.0), EmBC.METALLIC, 0.5)
    with pytest.raises(DomainError):
        core.em_stress(Spacetime(5, 1.0), EmBC.METALLIC, 1.0)


# ------------------------------------------------------------ single plate


def test_single_plate_d4_vanishes():
    t = core.single_plate_stress(4, EmBC.METALLIC, 0.7)
    assert (t.t00, t.tzz, t.t_transverse, t.trace) == (0.0, 0.0, 0.0, 0.0)


def test_single_plate_d6_value_and_scaling():
    t1 = core.single_plate_stress(6, EmBC.METALLIC, 1.0)
    assert rel_err(t1.t00, -1 / (8 * PI**3)) < 1e-13
    assert t1.tzz == 0.0
    t2 = core.single_plate_stress(6, EmBC.METALLIC, 2.0)
    assert rel_err(t2.t00, t1.t00 / 64.0) < 1e-13
    # negative energy density for metallic above four dimensions
    for dim in (5, 6, 9):
        assert core.single_plate_stress(dim, EmBC.METALLIC, 0.4).t00 < 0.0
    # side symmetry in |z|
    assert core.single_plate_stress(6, EmBC.MIT, -1.0) == core.single_plate_stress(
        6, EmBC.MIT, 1.0
    )


def test_single_plate_is_large_gap_limit_of_em_stress():
    sp = core.single_plate_stress(6, EmBC.METALLIC, 1.0)
    for gap in (100.0, 1000.0):
        far = core.em_stress(Spacetime(6, gap), EmBC.METALLIC, 1.0)
        assert rel_err(far.t00, sp.t00) < 1e-6
    # the deviation decays like (z/L)^D; measured where it is still far
    # above double-precision noise
    dev10 = rel_err(core.em_stress(Spacetime(6, 10.0), EmBC.METALLIC, 1.0).t00, sp.t00)
    dev100 = rel_err(core.em_stress(Spacetime(6, 100.0), EmBC.METALLIC, 1.0).t00, sp.t00)
    slope = math.log10(dev10 / dev100)
    assert abs(slope - 6.0) < 0.5


def test_single_plate_domain():
    with pytest.raises(DomainError):
        core.single_plate_stress(6, EmBC.METALLIC, 0.0)
    with pytest.raises(DomainError):
        core.single_plate_stress(2, EmBC.METALLIC, 1.0)


# -------------------------------------------------------- subtracted side


def test_f_tilde_midpoint_and_edges():
    from casimir_slab import specfun

    for dim in (4, 6, 9):
        st = Spacetime(dim, 1.0)
        assert rel_err(core.f_tilde(st, 0.5), 2 * specfun.hurwitz_zeta(float(dim), 1.5)) < 1e-13
    # finite at the closed endpoints; frozen from the direct double sum:
    # zeta_H(4,1) + zeta_H(4,2) = 2 zeta(4) - 1
    st4 = Spacetime(4, 1.0)
    n = np.arange(0.0, 2_000_000.0)
    direct = float(((n + 1.0) ** -4).sum() + ((n + 2.0) ** -4).sum()) + (
        2 / 3
    ) * 2_000_000.0**-3
    want = 2 * PI**4 / 90 - 1.0
    assert abs(direct - want) < 1e-9
    assert rel_err(core.f_tilde(st4, 0.0), want) < 1e-12
    assert rel_err(core.f_tilde(st4, 1.0), want) < 1e-12


@given(st.integers(min_value=3, max_value=12), st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=150)
def test_f_tilde_plate_subtraction_relation(dim, x):
    st = Spacetime(dim, 1.0)
    want = core.f_profile(st, x) - x ** (-float(dim)) - (1.0 - x) ** (-float(dim))
    got = core.f_tilde(st, x)
    # the subtraction on the right cancels catastrophically near the
    # plates, so compare at the scale of the unsubtracted profile
    assert abs(got - want) <= 1e-9 * core.f_profile(st, x)


def test_f_tilde_symmetry_and_domain():
    st = Spacetime(7, 1.0)
    for x in (0.0, 0.2, 0.35):
        assert rel_err(core.f_tilde(st, x), core.f_tilde(st, 1.0 - x)) < 1e-12
    with pytest.raises(DomainError):
        core.f_tilde(st, -0.01)
    with pytest.raises(DomainError):
        core.f_tilde(st, 1.01)


def test_subtracted_profile_d4_piecewise_values():
    st4 = Spacetime(4, 1.0)
    grid = [-0.7, -0.2, 0.3, 0.6, 1.3, 1.9]
    prof = core.subtracted_profile(st4, EmBC.METALLIC, grid)
    for s in prof.samples:
        if s.region is Region.INTERIOR:
            assert rel_err(s.tensor.t00, -PI**2 / 720) < 1e-13
        else:
            assert s.tensor.t00 == 0.0
            assert s.tensor.tzz == 0.0


def test_subtracted_profile_tzz_piecewise():
    st6 = Spacetime(6, 1.0)
    prof = core.subtracted_profile(st6, EmBC.METALLIC, [-0.4, 0.2, 0.8, 1.6])
    p = core.pressure(st6, MAXWELL_METALLIC)
    for s in prof.samples:
        if s.region is Region.INTERIOR:
            assert s.tensor.tzz == p
        else:
            assert s.tensor.tzz == 0.0


def test_subtracted_profile_on_plate_raises():
    st6 = Spacetime(6, 1.0)
    with pytest.raises(DomainError):
        core.subtracted_profile(st6, EmBC.METALLIC, [0.0, 0.5])
    with pytest.raises(DomainError):
        core.subtracted_profile(st6, EmBC.METALLIC, [0.5, 1.0])


def test_subtracted_profile_rejects_infinite_points():
    # z = -inf once gave a row (-inf, 0.0, ...), whose z no table can hold.
    st6 = Spacetime(6, 1.0)
    for grid in ([-math.inf, 0.5], [0.5, math.inf], [math.inf]):
        with pytest.raises(DomainError, match="must be finite"):
            core.subtracted_rows(st6, EmBC.METALLIC, grid)


def test_field_invariant_raises_where_the_sum_overflows():
    big = core.FieldFluctuations(1e308, -1e308, -1e308, 1e308)
    with pytest.raises(DomainError):
        core.field_invariant(big, 6)
    with pytest.raises(DomainError):
        core.field_invariant(core.FieldFluctuations(0.0, 0.0, 0.0, 0.0), math.inf)


def test_subtracted_profile_one_sided_limits_are_finite():
    # the subtracted tensor is finite approaching each plate from both
    # sides, but the two limits differ; report the gap rather than
    # asserting continuity
    st6 = Spacetime(6, 1.0)
    eps = 1e-6
    inner = core.subtracted_profile(st6, EmBC.METALLIC, [eps]).samples[0].tensor.t00
    outer = core.subtracted_profile(st6, EmBC.METALLIC, [-eps]).samples[0].tensor.t00
    assert math.isfinite(inner) and math.isfinite(outer)
    gap = inner - outer
    # interior limit: -(D-2) A (zeta + f~(0)); exterior limit: +(D-2) A
    from casimir_slab import specfun

    scale = specfun.gamma(3.0) / (4 * PI) ** 3
    zeta6 = specfun.riemann_zeta(6.0)
    want_inner = -4 * scale * (zeta6 + (2 * zeta6 - 1.0))
    want_outer = 4 * scale
    assert rel_err(inner, want_inner) < 1e-5
    assert rel_err(outer, want_outer) < 1e-4
    assert abs(gap - (want_inner - want_outer)) < 1e-6


def test_mit_flips_subtracted_profile_sign_outside():
    st6 = Spacetime(6, 1.0)
    met = core.subtracted_profile(st6, EmBC.METALLIC, [-0.3, 1.5])
    mit = core.subtracted_profile(st6, EmBC.MIT, [-0.3, 1.5])
    for a, b in zip(met.samples, mit.samples):
        assert a.tensor.t00 == -b.tensor.t00
