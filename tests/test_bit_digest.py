"""A pinned sha256 over about 67 000 seeded results of specfun and core.

Every value is recorded as float.hex and every error as its type and
message, so any change that moves one bit of one result, or one word of
one error, changes the digest. The arithmetic is pure Python floats and
the libm of an x86-64 glibc host; a platform whose pow, exp, log, sin or
cos round differently gives another digest.

To see where a change moved a result, run this file as a script before
and after it and compare the two outputs, one line per result:

    PYTHONPATH=src python tests/test_bit_digest.py > lines.txt
"""

import hashlib
import math
import random
from dataclasses import astuple
from enum import Enum

from casimir_slab import core, specfun
from casimir_slab.core import EmBC, ScalarBC, Spacetime, Theory, TheoryKind

DIGEST = "082133834512f46774184d5ab8305d96cdca75f03247796bd42f5e052ddf953e"

# x = z/L near each plate, between them, and at the midpoint.
_FRACTIONS = (1e-300, 1e-20, 1e-9, 2.0**-30, 1e-3, 0.01, 0.125, 0.3, 0.5,
              0.7, 0.875, 0.99, 0.999, 1.0 - 2.0**-30, 1.0 - 1e-9, 1.0 - 2.0**-53)
_LENGTHS = (1e-14, 1e-3, 0.37, 1.0, 2.9, 1e14)
_THEORIES = (
    Theory(TheoryKind.SCALAR_CANONICAL, ScalarBC.DIRICHLET),
    Theory(TheoryKind.SCALAR_IMPROVED, ScalarBC.NEUMANN),
    Theory(TheoryKind.MAXWELL, EmBC.METALLIC),
)


def _record(out, name, call, *args):
    # One line: the call, its arguments and its result or error.
    try:
        result = call(*args)
    except Exception as exc:  # every failure is part of the digest
        result = f"{type(exc).__name__}: {exc}"
    out.append(f"{name}{_text(args)} -> {_text(result)}")


def _text(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(map(_text, value)) + ")"
    if isinstance(value, Spacetime):  # by value, not by repr
        return f"Spacetime({value.dim_D},{_text(value.plate_gap_L)})"
    if isinstance(value, Theory):
        return f"Theory({value.kind.value},{value.bc.value})"
    if hasattr(value, "__dataclass_fields__"):
        return type(value).__name__ + _text(astuple(value))
    if isinstance(value, Enum):
        return value.value
    return repr(value)


def _log_uniform(rng, lo, hi):
    return math.exp(rng.random() * (math.log(hi) - math.log(lo)) + math.log(lo))


def _specfun_lines(rng, out):
    hz = specfun.hurwitz_zeta
    for _ in range(16000):
        u = rng.random()
        if u < 0.4:  # the orders the slab uses, D = 2..24
            s = float(2 + int(rng.random() * 23))
        elif u < 0.7:
            s = 1.0 + _log_uniform(rng, 1e-3, 399.0)
        else:  # large orders, where the tail sum can end negative
            s = float(int(20 + rng.random() * 380)) + (0.5 if rng.random() < 0.3 else 0.0)
        v = rng.random()
        if v < 0.6:
            a = _log_uniform(rng, 1e-3, 40.0)
        elif v < 0.8:
            a = round(rng.random() * 80.0) / 2.0 or 0.5  # half-integers up to 40
        else:  # down to 1e-300, where a**-s overflows
            a = _log_uniform(rng, 1e-300, 1e-3)
        _record(out, "hurwitz_zeta", hz, s, a)
    for s, a in ((200.0, 16.5), (1.0, 0.5), (0.5, 2.0), (2.0, 0.0), (2.0, -1.0),
                 (math.inf, 1.0), (2.0, math.nan), (2.0, 1e-200), (400.0, 40.0)):
        _record(out, "hurwitz_zeta", hz, s, a)

    for _ in range(6000):
        u = rng.random()
        if u < 0.2:
            s = float(int(-400 + rng.random() * 460))
        elif u < 0.6:
            s = -400.0 + rng.random() * 460.0
        else:
            s = 1.0 + (rng.random() - 0.5) * 10.0 ** (rng.random() * 4.0 - 3.0)
        _record(out, "riemann_zeta", specfun.riemann_zeta, s)
    for s in (1.0, -0.01, -0.0100000001, 0.0, -2.0, -341.0, -342.5, math.nan):
        _record(out, "riemann_zeta", specfun.riemann_zeta, s)

    for _ in range(1500):
        order = 1 + int(rng.random() * 24)
        theta = math.pi * _log_uniform(rng, 1e-6, 1.0 - 1e-6)
        _record(out, "cot_derivative", specfun.cot_derivative, order, theta)
    for order, theta in ((163, 1.0), (164, 1.0), (0, 1.0), (2.5, 1.0), (100, 1e-3),
                         (3, 0.0), (3, math.pi), (1, math.pi / 2)):
        _record(out, "cot_derivative", specfun.cot_derivative, order, theta)


def _core_lines(rng, out):
    for dim in range(2, 25):
        for length in _LENGTHS:
            length = length * (1.0 + 0.25 * rng.random())
            _record(out, "Spacetime", Spacetime, dim, length)
            try:
                st = Spacetime(dim, length)
            except ValueError:
                continue
            _record(out, "base_energy_density", core.base_energy_density, st)
            for th in _THEORIES:
                _record(out, "total_energy_per_area", core.total_energy_per_area, st, th)
                _record(out, "pressure", core.pressure, st, th)
            xs = list(_FRACTIONS) + [rng.random() for _ in range(6)]
            zs = [x * length for x in xs]
            for x in xs:
                _record(out, "f_profile", core.f_profile, st, x)
                _record(out, "f_tilde", core.f_tilde, st, x)
            for x in (0.0, 1.0):
                _record(out, "f_tilde", core.f_tilde, st, x)
            for sbc in ScalarBC:
                for z in zs:
                    _record(out, "scalar_energy_density", core.scalar_energy_density, st, sbc, z)
                    for improved in (False, True):
                        _record(out, "scalar_stress", core.scalar_stress, st, sbc, z, improved)
                for improved in (False, True):
                    _record(out, "scalar_stress_rows", core.scalar_stress_rows, st, sbc, zs, improved)
                    _record(out, "scalar_stress_rows", core.scalar_stress_rows, st, sbc, zs[4:-3], improved)
            wide = [-2.0 * length, -1e-9 * length] + zs[3:-3] + [length * 1.5, length * 40.0]
            for ebc in EmBC:
                for z in zs:
                    _record(out, "em_stress", core.em_stress, st, ebc, z)
                    _record(out, "em_fluctuations", core.em_fluctuations, st, ebc, z)
                _record(out, "em_stress_rows", core.em_stress_rows, st, ebc, zs)
                _record(out, "em_stress_rows", core.em_stress_rows, st, ebc, zs[4:-3])
                _record(out, "em_fluctuations_rows", core.em_fluctuations_rows, st, ebc, zs)
                _record(out, "em_fluctuations_rows", core.em_fluctuations_rows, st, ebc, zs[4:-3])
                _record(out, "subtracted_rows", core.subtracted_rows, st, ebc, wide)
                _record(out, "subtracted_rows", core.subtracted_rows, st, ebc, wide + [length])
                _record(out, "subtracted_profile", core.subtracted_profile, st, ebc, wide)
            fl = core.FieldFluctuations(*(rng.random() - 0.5 for _ in range(4)))
            _record(out, "field_invariant", core.field_invariant, fl, dim)
        for ebc in EmBC:
            for z in (-1e3, -1.0, -1e-9, 1e-12, 0.3, 7.0, 1e14, 0.0):
                _record(out, "single_plate_stress", core.single_plate_stress, dim, ebc, z)
    for _ in range(2000):
        theta = math.pi * rng.random()
        _record(out, "F_theta", core.F_theta, theta)
    for theta in (0.0, math.pi, math.pi / 2, 1e-300):
        _record(out, "F_theta", core.F_theta, theta)


def _sweep():
    rng = random.Random(20061)
    out = []
    _specfun_lines(rng, out)
    _core_lines(rng, out)
    return out


def test_sweep_matches_the_pinned_digest():
    lines = _sweep()
    assert len(lines) > 45000
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == DIGEST


if __name__ == "__main__":
    print("\n".join(_sweep()))
