"""Two-point Schwinger functions on the lattice.

The free massive two-point function is evaluated as a momentum sum,

    S2_m(f, g) = L^-d sum_k f^(-k) g^(k) / (khat^2 + m^2),

with the lattice symbol khat^2, the package's only momentum symbol.  A
spectral superposition replaces the single mass by a finite nonnegative
atomic measure on the mass-squared axis:

    S2_rho(f, g) = sum_atoms weight * S2_m(f, g).

Every atom sits at or above the one infrared floor MASS_FLOOR_SQ, and
S2_m(f, f) is pinned to the squared mass-regularized Sobolev norm for real f.

The momentum sum is written once, in two kernels over an atom-weight matrix
with one measure per row (a model's leaves): `two_point_pairs` pairs each f_i
with its g_i, and `two_point_grams` pairs every f_i with every f_j.  Every
real-field transform (the Grams, the Sobolev norms, the sampler's amplitudes
in `montecarlo`) reads one table, `inverse_propagators`: 1 / (khat^2 + m^2)
of every mass on the rfftn half grid, where a mode k_last in (0, N/2) stands
for itself and its -k, so it counts with multiplicity mu = 2.  The Grams
contract it into one propagator P_r per row: `row_grams` pays one matmul X diag(mu P_r) X^T
per row, and `row_forms` one (X * X) [mu P_r]^T for the diagonals alone, over the rows
X_f = rows(Re f) + i rows(Im f) of the functions (`lattice.stacked_half_spectra`), real
for real f.  The form is bilinear, so a row gives
S2(u + i v, u' + i v') = S2(u, u') - S2(v, v') + i (S2(u, v') + S2(v, u')) at once.
The weights tile(mu P_r, 2) of a model on a grid are formed once, read-only, in a 4-entry
cache keyed by the grid and the bytes of the masses and atoms (a norm's: ([m2], [[1.0]])).
The pairs alone take the complex full spectrum, from their own FFT, read at
-k through the lattice's negation (`lattice.negate_axes`), and stay per mass
over a full-grid table while the worst_kind argmax rests on evaluate_many's bits:
numpy divides a complex by a real by Smith's rule, which multiplies both parts
by 1/d, so their products have the bits of a per-mass division (except that a
-0 part of the numerator may come out as a zero of the other sign).  Overflow
raises DomainError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, SchemaError
from .lattice import (Grid, TestFunction, common_grid, half_spectrum, lattice_symbol,
                      negate_axes, stacked_half_spectra)
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


def inverse_propagators(grid: Grid, masses_sq: Sequence[float]) -> np.ndarray:
    """1 / (m2 + khat^2) of every mass m2 on every rfftn half-grid mode, shape (masses, modes):
    the one table of the real-field transforms (Grams, norms, sampler)."""
    return 1.0 / (np.asarray(masses_sq, dtype=np.float64)[:, None] + half_spectrum(grid)[0])


def propagator_rows(grid: Grid, masses_sq: Sequence[float], atoms: np.ndarray) -> np.ndarray:
    """The covariance symbol P_r(k) = sum_m atoms[r, m] / (khat^2 + m^2) of every row r
    of atoms on the half grid, shape (rows, modes)."""
    return atoms @ inverse_propagators(grid, masses_sq)


def _finite(values: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise DomainError("two-point values overflow float64: the spectral "
                          "weights or test functions are too large")
    return values


def _spectra(fs: Sequence[TestFunction]) -> np.ndarray:
    """f^(k) = a^d sum_x exp(-i k.x) f(x) of every f in fs as flat FFT-order rows,
    from one batched FFT of the distinct functions (a row has its own FFT's bits)."""
    grid = common_grid(fs)
    distinct = {id(f): f for f in fs}
    row = {key: i for i, key in enumerate(distinct)}
    hats = np.fft.fftn(np.array([f.values for f in distinct.values()]),
                       axes=tuple(range(1, grid.d + 1))) * grid.cell
    return hats.reshape(len(distinct), -1)[[row[id(f)] for f in fs]]


def two_point_pairs(fs: Sequence[TestFunction], gs: Sequence[TestFunction],
                    masses_sq: Sequence[float], atoms: np.ndarray) -> np.ndarray:
    """S2_r(f_i, g_i) of every pair i and every row r of atoms, shape
    (len(fs), rows); row r weights masses_sq[m] by atoms[r, m].

    Per mass one (len(fs), sites) temporary is multiplied by that mass's
    row of the full-grid reciprocal table and row-summed, so a pair's
    momentum sum has the same bits whichever other pairs and masses share
    the call; each row then adds its atoms in mass order.
    """
    if not fs:
        return np.zeros((0, len(atoms)))
    grid = fs[0].grid
    with np.errstate(over="ignore", invalid="ignore"):
        hats = _spectra(fs if gs is fs else list(fs) + list(gs))
        reflected = negate_axes(hats[:len(fs)].reshape((len(fs),) + grid.shape),
                                tuple(range(1, grid.d + 1)))
        prod = reflected.reshape(len(fs), -1) * hats[-len(gs):]
        scaled = np.empty_like(prod)
        inverse = 1.0 / (np.asarray(masses_sq, dtype=np.float64)[:, None]
                         + lattice_symbol(grid).ravel())
        sums = np.array([np.multiply(prod, inv, out=scaled).sum(axis=1) for inv in inverse]).T
        return _finite(running_sum(atoms * sums[:, None, :]) / grid.extent ** grid.d)


def running_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the last axis (atoms, or leaves) as a running sum in order, not np.sum's
    pairwise order: evaluate_many's bits, and every witness built on them, depend on it."""
    return np.cumsum(terms, axis=-1)[..., -1]


def _weights(grid: Grid, masses_sq: Sequence[float], atoms) -> np.ndarray:
    """tile(mu P_r, 2) of every row r of atoms, shape (rows, 2 * modes), from the cache."""
    return _weight_table(grid, *(np.asarray(a, np.float64).tobytes() for a in (masses_sq, atoms)))


@lru_cache(maxsize=4)
def _weight_table(grid: Grid, masses_sq: bytes, atoms: bytes) -> np.ndarray:
    masses = np.frombuffer(masses_sq)
    rows = propagator_rows(grid, masses, np.frombuffer(atoms).reshape(-1, len(masses)))
    out = np.tile(half_spectrum(grid)[1] * rows, 2)   # mu is 1 or 2, so this is exact
    out.setflags(write=False)
    return out


def row_grams(x: np.ndarray, grid: Grid, masses_sq: Sequence, atoms: np.ndarray) -> np.ndarray:
    """X diag(mu P_r) X^T / L^d of every (n, 2 * modes) stack X of half-spectrum rows in x under
    every row r of atoms, shape (..., rows, n, n); each X's slice has its own call's bits.
    The weights mu P_r are the cached table of (grid, masses_sq, atoms)."""
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.empty_like(x)   # one temporary for every row
        return _finite(np.stack([np.multiply(x, w, out=scaled) @ np.swapaxes(x, -1, -2)
                                 for w in _weights(grid, masses_sq, atoms)], axis=-3)
                       / grid.extent ** grid.d)


def row_forms(x: np.ndarray, grid: Grid, masses_sq: Sequence, atoms: np.ndarray) -> np.ndarray:
    """The diagonal of row_grams, shape (..., n, rows): X_i diag(mu P_r) X_i^T / L^d of every
    row X_i in x under every row r of atoms, one matmul of x * x with the same cached weights."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite((x * x) @ _weights(grid, masses_sq, atoms).T / grid.extent ** grid.d)


def two_point_grams(fs: Sequence, masses_sq: Sequence[float], atoms: np.ndarray) -> np.ndarray:
    """Grams S2_r(f_i, f_j) of fs under every row r of atoms, shape (rows, n, n): the row_grams
    of their stacked rows X_f, complex; within about 1e-15 * max|G| of a per-mass sum."""
    if not fs:
        return np.zeros((len(atoms), 0, 0), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        x = stacked_half_spectra(fs)
    return row_grams(x, fs[0].grid, masses_sq, atoms).astype(np.complex128, copy=False)


def sobolev_norms(fs: Sequence[TestFunction], m2: float) -> np.ndarray:
    """The mass-regularized Sobolev norm sqrt(L^-d sum_k |f^|^2 / (khat^2 + m2)) of every f
    in fs, from its half-spectrum row, shape (len(fs),): sqrt(S2(f, f)) of the free mass-m2
    two-point function for real f."""
    return half_sobolev_norms(fs[0].grid, stacked_half_spectra(fs), m2) if fs else np.zeros(0)


def half_sobolev_norms(grid: Grid, rows: np.ndarray, m2: float) -> np.ndarray:
    """The norm of every half-spectrum row X: per row a pairwise sum of mu |X|^2 / (khat^2 + m2),
    so no bit depends on the stack; the weights are the cached ([m2], [[1.0]]) table, exact."""
    if not (math.isfinite(m2) and m2 > 0):   # the zero mode diverges at m2 = 0
        raise DomainError(f"sobolev_norms needs a finite m2 > 0, got {m2}")
    sq = np.add.reduce((rows * rows.conj()).real * _weights(grid, [m2], [[1.0]])[0], axis=1)
    return np.sqrt(sq / grid.extent ** grid.d)


def free_two_point(f: TestFunction, g: TestFunction, m2: float) -> complex:
    """Free massive two-point function S2_m(f, g); bilinear, symmetric."""
    return spectral_two_point(f, g, SpectralMeasure.delta(m2))


def spectral_two_point(f: TestFunction, g: TestFunction, rho: SpectralMeasure) -> complex:
    """Spectral superposition sum_atoms weight * S2_m(f, g); linear in rho."""
    masses, weights = zip(*rho.atoms)
    return complex(two_point_pairs([f], [g], masses, np.array([weights]))[0, 0])

