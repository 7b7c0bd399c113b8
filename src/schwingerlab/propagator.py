"""Two-point Schwinger functions on the lattice.

The free massive two-point function is evaluated as a momentum sum,

    S2_m(f, g) = L^-d sum_k f^(-k) g^(k) / (khat^2 + m^2),

with the lattice symbol khat^2, the package's only momentum symbol.  A
spectral superposition replaces the single mass by a finite nonnegative
atomic measure on the mass-squared axis:

    S2_rho(f, g) = sum_atoms weight * S2_m(f, g).

Every atom sits at or above the one infrared floor MASS_FLOOR_SQ, and
S2_m(f, f) is pinned to the squared mass-regularized Sobolev norm for real f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, SchemaError
from .lattice import Grid, TestFunction, lattice_symbol
from .serialize import json_number

# Guards the massless infrared divergence; models set their own, larger
# floor implicitly through the smallest atom they carry.
MASS_FLOOR_SQ = 1e-6


@dataclass(frozen=True)
class SpectralMeasure:
    """Finite nonnegative atomic measure on the mass-squared axis.

    Atoms are (m2, weight) pairs, sorted by m2 with exact duplicates merged.
    Every atom must sit at or above the infrared floor.  Continuous mass
    densities are admitted only after external discretization into
    quadrature atoms (Gauss-Legendre on log m2 works well); given the
    atoms, every superposition here is then evaluated exactly.
    """

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        merged: dict[float, float] = {}
        for pair in self.atoms:
            m2, w = float(pair[0]), float(pair[1])
            if not (math.isfinite(m2) and math.isfinite(w)):
                raise DomainError(f"atom ({m2}, {w}) must be finite")
            if m2 < MASS_FLOOR_SQ:
                raise DomainError(f"atom m2={m2} below the infrared floor {MASS_FLOOR_SQ}")
            if w < 0:
                raise DomainError(f"atom weight must be >= 0, got {w}")
            merged[m2] = merged.get(m2, 0.0) + w
        cleaned = tuple(sorted((m2, w) for m2, w in merged.items() if w > 0.0))
        if not cleaned:
            raise DomainError("spectral measure needs at least one atom of positive weight")
        object.__setattr__(self, "atoms", cleaned)

    @property
    def total_mass(self) -> float:
        return float(sum(w for _, w in self.atoms))

    @property
    def is_probability(self) -> bool:
        return abs(self.total_mass - 1.0) <= 1e-12

    @property
    def min_mass_sq(self) -> float:
        return self.atoms[0][0]

    def scaled(self, c: float) -> "SpectralMeasure":
        if c < 0:
            raise DomainError(f"scaling factor must be >= 0, got {c}")
        return SpectralMeasure(tuple((m2, c * w) for m2, w in self.atoms))

    def to_pairs(self) -> list[list[float]]:
        return [[m2, w] for m2, w in self.atoms]

    @staticmethod
    def from_pairs(pairs: Iterable[Sequence[float]]) -> "SpectralMeasure":
        if not isinstance(pairs, (list, tuple)):
            raise SchemaError(f"atoms must be a list of (m2, weight) pairs, got {pairs!r}")
        atoms = []
        for i, pair in enumerate(pairs):
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise SchemaError(f"atom {i} must be an (m2, weight) pair, got {pair!r}")
            atoms.append((float(json_number(pair[0], f"atom {i} m2")),
                          float(json_number(pair[1], f"atom {i} weight"))))
        return SpectralMeasure(tuple(atoms))

    @staticmethod
    def delta(m2: float) -> "SpectralMeasure":
        """Unit point mass at m2."""
        return SpectralMeasure(((float(m2), 1.0),))


def two_point_sums(f: TestFunction, g: TestFunction,
                   masses_sq: Sequence[float]) -> np.ndarray:
    """sum_k f^(-k) g^(k) / (khat^2 + m2) for every m2 in masses_sq at once.

    The one copy of the momentum sum: S2_m(f, g) is this sum times L^-d.
    Each mass's row is summed on its own, so its value has the same bits
    whichever other masses share the call.
    """
    if f.grid != g.grid:
        raise DomainError("two-point function needs both arguments on one grid")
    w = lattice_symbol(f.grid).ravel()
    # the only (masses x sites) temporary: denominators, then terms in place
    terms = np.empty((len(masses_sq), w.size), dtype=np.complex128)
    np.add(np.asarray(masses_sq, dtype=np.float64)[:, None], w, out=terms)
    np.divide((f.hat_neg * g.hat).ravel(), terms, out=terms)
    return terms.sum(axis=1)


def free_two_point(f: TestFunction, g: TestFunction, m2: float) -> complex:
    """Free massive two-point function S2_m(f, g); bilinear, symmetric."""
    return spectral_two_point(f, g, SpectralMeasure.delta(m2))


def spectral_two_point(f: TestFunction, g: TestFunction, rho: SpectralMeasure) -> complex:
    """Spectral superposition sum_atoms weight * S2_m(f, g); linear in rho."""
    masses, weights = zip(*rho.atoms)
    terms = np.array(weights) * two_point_sums(f, g, masses)
    # a running sum in atom order, not np.sum's pairwise order: evaluate's
    # bits, and every witness built on them, depend on it
    total = np.cumsum(terms)[-1]
    return complex(total / f.grid.extent ** f.grid.d)


def covariance_kernel(grid: Grid, m2: float) -> np.ndarray:
    """Position-space covariance C(x) = L^-d sum_k exp(i k.x) / (khat^2 + m2).

    Indexed by lattice displacement in FFT layout; real, even, maximal at
    zero displacement.  Satisfies a^(2d) sum_{x,y} f(x) C(x-y) g(y) = S2(f,g).
    """
    if m2 < MASS_FLOOR_SQ:
        raise DomainError(f"m2={m2} below the infrared floor {MASS_FLOOR_SQ}")
    return np.fft.ifftn(1.0 / (lattice_symbol(grid) + m2)).real / grid.cell
