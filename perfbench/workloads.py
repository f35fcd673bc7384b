"""Seeded inputs for the benchmark workloads.

Stdlib only: the scalar-calls worker imports this module, and that
workload must pay no numpy import. The same seed always yields the same
inputs; the program under test sees only the generated arguments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Large grids carry most rows. Each kind of grid draws its D from its own
# fixed band: the per-point cost grows with D (more Euler-Maclaurin terms
# in hurwitz_zeta), so a band per kind keeps the work of a pass nearly
# independent of the seed, while the four bands together span D = 5..24.
LARGE_SAMPLES = 20000
D_BANDS = {"maxwell": (20, 24), "scalar-canonical": (5, 9), "subtracted": (10, 14),
           "fluctuations": (15, 19)}
SCALAR_FUNCS = (
    "em_stress",
    "scalar_stress",
    "em_fluctuations",
    "pressure",
    "f_profile",
    "hurwitz_zeta",
    "riemann_zeta",
)

_EM_BCS = ("metallic", "mit")
_SCALAR_BCS = ("dirichlet", "neumann")


@dataclass(frozen=True)
class CliOp:
    """One valid `profile` / `fluctuations` invocation and what it means."""

    command: str  # "profile" or "fluctuations"
    theory: str
    bc: str
    dim: int
    length: float
    samples: int  # effective sample count (default-size tables included)
    subtracted: bool
    fmt: str
    explicit_samples: bool

    @property
    def argv(self) -> list[str]:
        args = [self.command, "--dim", str(self.dim), "--length", repr(self.length)]
        if self.command == "profile":
            args += ["--theory", self.theory]
        args += ["--bc", self.bc, "--format", self.fmt]
        if self.explicit_samples:
            args += ["--samples", str(self.samples)]
        if self.subtracted:
            args.append("--subtracted")
        return args

    @property
    def rows(self) -> int:
        return 3 * self.samples if self.subtracted else self.samples


@dataclass(frozen=True)
class Probe:
    """An invalid or extreme invocation; the CLI must exit 2 with one stderr line."""

    name: str
    argv: tuple[str, ...]


def _other(choices: tuple[str, str], picked: str) -> str:
    return choices[1] if picked == choices[0] else choices[0]


def _length(rng: random.Random) -> float:
    return 10.0 ** rng.uniform(-1.0, 1.0)


def profile_grid_ops(seed: int, scale: float = 1.0) -> list[CliOp]:
    """Four large grids plus five default-size tables, shuffled.

    Together they cover all three theories, all four boundary conditions,
    `profile`, `profile --subtracted` and `fluctuations`, and both formats.
    With five small tables the median operation is always a small one, so
    `call_p50_us` does not depend on which grid the seed made cheapest.
    """
    rng = random.Random(seed)
    big = max(2, int(LARGE_SAMPLES * scale))
    dims = {kind: rng.randint(lo, hi) for kind, (lo, hi) in D_BANDS.items()}
    em_a, em_b, em_c = (rng.choice(_EM_BCS) for _ in range(3))
    sc_a = rng.choice(_SCALAR_BCS)

    def op(command, theory, bc, dim, samples, fmt, subtracted=False, explicit=True):
        return CliOp(command, theory, bc, dim, _length(rng), samples, subtracted, fmt, explicit)

    def small(command, theory, bc, samples, subtracted=False):
        return op(command, theory, bc, rng.randint(3, 24), samples, rng.choice(("csv", "json")),
                  subtracted, explicit=False)

    ops = [
        op("profile", "maxwell", em_a, dims["maxwell"], big, "json"),
        op("profile", "scalar-canonical", sc_a, dims["scalar-canonical"], big, "csv"),
        # three rows (left exterior, interior, right exterior) per sample
        op("profile", "maxwell", em_b, dims["subtracted"], max(2, big // 3), "csv",
           subtracted=True),
        op("fluctuations", "maxwell", em_c, dims["fluctuations"], big, "json"),
        # default-size tables, each with the boundary condition its large
        # counterpart did not get
        small("profile", "scalar-improved", _other(_SCALAR_BCS, sc_a), 64),
        small("profile", "scalar-canonical", _other(_SCALAR_BCS, sc_a), 64),
        small("profile", "maxwell", _other(_EM_BCS, em_a), 64),
        small("profile", "maxwell", _other(_EM_BCS, em_b), 64, subtracted=True),
        small("fluctuations", "maxwell", _other(_EM_BCS, em_c), 16),
    ]
    rng.shuffle(ops)
    return ops


def probes(seed: int, missing_dir: str) -> list[Probe]:
    """Error-contract probes; `missing_dir` must be a path that does not exist."""
    rng = random.Random(seed ^ 0x5EED)
    return [
        Probe("samples-too-small", ("profile", "--samples", str(rng.randint(-1, 1)))),
        Probe("subtracted-scalar", ("profile", "--subtracted", "--theory",
                                    rng.choice(("scalar-canonical", "scalar-improved")))),
        Probe("length-overflow", ("pressure", "--dim", str(rng.randint(2, 24)),
                                  "--length", f"{10.0 ** rng.uniform(200, 300):.6e}")),
        Probe("length-underflow", ("profile", "--dim", str(rng.randint(22, 24)),
                                   "--length", f"{10.0 ** rng.uniform(-16, -15):.6e}")),
        Probe("output-missing-dir", ("profile", "--dim", str(rng.randint(3, 24)),
                                     "--output", f"{missing_dir}/table.csv")),
        Probe("fluctuations-d2", ("fluctuations", "--dim", "2")),
    ]


def scalar_call_specs(seed: int, pass_index: int, n_calls: int) -> list[tuple]:
    """Scattered scalar calls, fresh for every pass so no (D, L) repeats.

    Each spec is a JSON-friendly tuple (name, *params); equal counts per
    function keep the cost of a pass independent of the seed.
    """
    rng = random.Random(f"{seed}:{pass_index}")
    names = [SCALAR_FUNCS[i % len(SCALAR_FUNCS)] for i in range(n_calls)]
    rng.shuffle(names)
    specs: list[tuple] = []
    for name in names:
        dim = rng.randint(3, 24)
        length = _length(rng)
        z = length * rng.uniform(0.01, 0.99)
        if name in ("em_stress", "em_fluctuations"):
            specs.append((name, dim, length, rng.choice(_EM_BCS), z))
        elif name == "scalar_stress":
            specs.append((name, dim, length, rng.choice(_SCALAR_BCS), z, rng.random() < 0.5))
        elif name == "pressure":
            theory = rng.choice(("scalar-canonical", "scalar-improved", "maxwell"))
            bc = rng.choice(_EM_BCS if theory == "maxwell" else _SCALAR_BCS)
            specs.append((name, dim, length, theory, bc))
        elif name == "f_profile":
            specs.append((name, dim, length, rng.uniform(0.01, 0.99)))
        elif name == "hurwitz_zeta":
            specs.append((name, rng.uniform(2.0, 24.0), rng.uniform(0.01, 3.0)))
        else:
            specs.append((name, rng.uniform(2.0, 24.0)))
    return specs
