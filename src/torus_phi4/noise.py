"""Mode-wise complex Brownian driving paths on a uniform time grid.

A NoisePath stores, for every retained mode n and time step k, the
increment DB_n(k) of an independent standard complex Brownian motion
(E|DB|^2 = h, E[DB^2] = 0).  Paths are reproducible from a seed and can
be refined: halving the step draws the missing midpoints by a Brownian
bridge from a deterministic child stream, so the summed fine increments
reproduce the coarse ones exactly and coarse/fine runs stay coupled.

`lockstep_increments` streams the paths of a whole ensemble step by step,
drawing each member's path in blocks of steps from its own stream; the
values equal `NoisePath.generate`'s bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .spectral import ModeLattice

__all__ = ["NoisePath", "lockstep_increments"]

BLOCK_ENTRIES = 2**15  # complex increments (512 KB) held per block of an ensemble


def _normals(seed: int) -> np.random.Generator:
    """The generator whose standard normals drive the path of `seed`."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), 0]))


def _increments(z: np.ndarray, horizon: float, n_steps: int) -> np.ndarray:
    """The increments sqrt(h/2) (z[..., 0] + i z[..., 1]) of the normals
    z[..., 2], as a complex view of z scaled in place: scaling each part
    gives the bits of the complex product."""
    z *= np.sqrt(horizon / n_steps / 2.0)
    return z.view(np.complex128)[..., 0]


def lockstep_increments(
    lattice: ModeLattice, horizon: float, n_steps: int, seeds
) -> Iterator[np.ndarray]:
    """Per-step increments of the paths NoisePath.generate(..., seed=s), s in seeds.

    Yields n_steps arrays of shape (len(seeds), n_modes).  Memory holds one
    block of steps of every path, about BLOCK_ENTRIES values, not whole
    paths.  Each block is laid out member by member, so every generator
    fills its own contiguous slice; a generator fills its normals in order,
    so consecutive blocks continue a single draw of all n_steps.
    """
    return _stream_increments([_normals(s) for s in seeds], lattice, horizon, n_steps)


def _stream_increments(
    streams: list, lattice: ModeLattice, horizon: float, n_steps: int
) -> Iterator[np.ndarray]:
    """`lockstep_increments` for paths drawn from the generators `streams`."""
    block = max(1, BLOCK_ENTRIES // (len(streams) * lattice.n_modes))
    for start in range(0, n_steps, block):
        z = np.empty((len(streams), min(block, n_steps - start), lattice.n_modes, 2))
        for rng, zi in zip(streams, z):
            rng.standard_normal(out=zi)
        yield from _increments(z, horizon, n_steps).swapaxes(0, 1)


@dataclass
class NoisePath:
    lattice: ModeLattice
    horizon: float
    increments: np.ndarray  # shape (n_steps, n_modes), complex
    seed: int
    level: int = 0

    @property
    def n_steps(self) -> int:
        return self.increments.shape[0]

    @property
    def h(self) -> float:
        return self.horizon / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)

    @classmethod
    def generate(
        cls, lattice: ModeLattice, horizon: float, n_steps: int, seed: int
    ) -> "NoisePath":
        z = _normals(seed).standard_normal((n_steps, lattice.n_modes, 2))
        return cls(lattice, horizon, _increments(z, horizon, n_steps), int(seed), 0)

    def refine(self) -> "NoisePath":
        """Halve the step; pairwise sums of the result equal this path."""
        rng = np.random.default_rng(
            np.random.SeedSequence([self.seed, self.level + 1])
        )
        K, nm = self.increments.shape
        h = self.h
        z = rng.standard_normal((K, nm, 2))
        # first half of each coarse increment, conditioned on the total:
        # mean c/2, complex variance h/4
        bump = np.sqrt(h / 8.0) * (z[..., 0] + 1j * z[..., 1])
        first = 0.5 * self.increments + bump
        second = self.increments - first
        fine = np.empty((2 * K, nm), dtype=np.complex128)
        fine[0::2] = first
        fine[1::2] = second
        return NoisePath(self.lattice, self.horizon, fine, self.seed, self.level + 1)

    def refined_to(self, n_steps: int) -> "NoisePath":
        """Refine repeatedly until the path has n_steps steps."""
        path = self
        while path.n_steps < n_steps:
            path = path.refine()
        if path.n_steps != n_steps:
            raise ValueError("n_steps must be base steps times a power of two")
        return path
