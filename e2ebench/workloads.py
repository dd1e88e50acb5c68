"""The benchmark's workloads: which CLI experiments one pass runs.

Every size below equals the CLI default of its experiment, except in
grid-2d-fine, which runs the same layers near the 2D cap of n = 32.
Sizes are passed explicitly so that the workload stays fixed if a CLI
default changes. The report cells are the same as those of a bare call;
the config hash and the report file name are not, since both depend on
the sizes given.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Run:
    """One experiment run: one `fracspace.cli.main` call."""

    experiment: str
    sizes: tuple

    @property
    def label(self) -> str:
        return f"{self.experiment} --size {' '.join(map(str, self.sizes))}"

    def argv(self, seed: int, out: str) -> list:
        return [
            self.experiment,
            "--size",
            *map(str, self.sizes),
            "--seed",
            str(seed),
            "--out",
            out,
            "--format",
            "both",
        ]


WORKLOADS = {
    # 1D analytic model and quadrature; no 2D assembly, no retraction
    "spectral-1d": (
        Run("lemma41", (256,)),
        Run("reiteration", (256,)),
        Run("higher-power", (128,)),
        Run("criticality", (2**14,)),
        Run("weight", (20,)),
    ),
    # small 2D grids: dispatch-bound pointwise K loop, largest reports
    "grid-2d": (
        Run("intersection", (16, 12)),
        Run("halft1", (8, 12, 16)),
        Run("stokes-retraction", (8, 16, 24)),
        Run("stokes-equivalence", (8, 12, 16)),
    ),
    # near the 2D cap: dense LAPACK on ~2000 unknowns, memory peak
    "grid-2d-fine": (
        Run("halft1", (12, 24)),
        Run("stokes-retraction", (16, 32)),
    ),
}

DEFAULT_SEED = 42
