"""Seeded, deterministic test-function sets for checks and experiments.

Everything here is driven by a counter-based bit generator so that a
(seed, call sequence) pair reproduces the exact same functions on any
execution schedule.
"""

from __future__ import annotations

import numpy as np

from .lattice import Grid, TestFunction, l2_norms, packet_values, positive_time_parts


# seeds from outside the program are integers in 0..MAX_SEED, the Philox key
# word, so no two of them key the same stream
MAX_SEED = (1 << 64) - 1


def rng_from_seed(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator keyed by (seed, stream): key words [stream, seed] mod 2^64."""
    key = np.array([int(stream) % (1 << 64), int(seed) % (1 << 64)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _packet_draw(grid: Grid, rng: np.random.Generator) -> tuple:
    L = grid.extent
    center = rng.uniform(0.0, L, size=grid.d)
    lo = 2.0 * grid.spacing
    width = rng.uniform(lo, L / 8.0) if L / 8.0 > lo else lo
    modes = rng.integers(-2, 3, size=grid.d)
    return center, width, 2.0 * np.pi / L * modes


def random_real_values(grid: Grid, rng: np.random.Generator, count: int) -> np.ndarray:
    """`count` random real functions' values, shape (count, *grid.shape), bit for bit
    and draw for draw those drawn one probe at a time, every packet in one stacked pass.

    Per probe the draws are the first packet's center, width and modes, a
    coin, and on heads a coefficient and the second packet's draws.  A probe
    whose norm is below 1e-12 is dropped and the next draws replace it.
    """
    if count < 1:
        return np.empty((0,) + grid.shape)
    firsts, rows, coeffs, seconds = [], [], [], []
    for j in range(count):
        firsts.append(_packet_draw(grid, rng))
        if rng.random() < 0.5:
            rows.append(j)
            coeffs.append(rng.uniform(-1.0, 1.0))
            seconds.append(_packet_draw(grid, rng))
    centers, widths, momenta = zip(*firsts, *seconds)
    vals = packet_values(grid, np.array(centers), widths, np.array(momenta))
    vals[rows] += np.reshape(coeffs, (-1,) + (1,) * grid.d) * vals[count:]
    real = vals[:count].real
    norms = l2_norms(grid, real)
    keep = norms >= 1e-12    # astronomically unlikely cancellation; redraw
    out = real[keep] * (1.0 / norms[keep]).reshape((-1,) + (1,) * grid.d)
    return out if len(out) == count else np.concatenate(
        [out, random_real_values(grid, rng, count - len(out))])


def random_real_functions(grid: Grid, rng: np.random.Generator,
                          count: int) -> list[TestFunction]:
    """random_real_values as test functions; every imaginary part is +0.0."""
    return [TestFunction(grid, v) for v in random_real_values(grid, rng, count)]


def random_positive_time_functions(grid: Grid, rng: np.random.Generator,
                                   count: int) -> list[TestFunction]:
    """`count` random real packets gated onto the strictly positive time
    slices, unit L2 norm: bit for bit and draw for draw those drawn one probe
    at a time, with every packet built in one stacked pass.

    A packet whose real part has norm below 1e-12 gives its imaginary part.
    """
    if count < 1:
        return []
    n, a, L = grid.n_per_axis, grid.spacing, grid.extent
    # keep the bulk of the packet away from the reflection plane; on tiny
    # grids the band degenerates to its midpoint
    lo, hi = 2.0 * a, (n // 2 - 2) * a
    w_hi = max(2.0 * a, min(L / 8.0, n // 8 * a))
    draws = []
    for _ in range(count):
        center = rng.uniform(0.0, L, size=grid.d)
        center[0] = rng.uniform(lo, hi) if hi > lo else lo
        width = rng.uniform(2.0 * a, w_hi) if w_hi > 2.0 * a else 2.0 * a
        draws.append((center, width, 2.0 * np.pi / L * rng.integers(-2, 3, size=grid.d)))
    centers, widths, momenta = zip(*draws)
    vals = packet_values(grid, np.array(centers), widths, np.array(momenta))
    small = (l2_norms(grid, vals.real) < 1e-12).reshape((-1,) + (1,) * grid.d)
    parts = np.where(small, vals.imag, vals.real)
    return [TestFunction(grid, v, copy=False)
            for v in positive_time_parts(grid, parts.astype(np.complex128))]


def random_model_tree(rng: np.random.Generator, max_depth: int = 3):
    """Random mixture tree of Gaussian leaves, depth <= max_depth.

    Leaves carry 1..3 atoms with masses^2 drawn from [1, 9) and Dirichlet
    weights; interior nodes mix 2..3 children.  Distinct leaves almost
    surely carry distinct spectral measures.
    """
    from .functional import QuasiFree, envelope
    from .propagator import SpectralMeasure

    def build(depth: int):
        if depth >= max_depth or rng.random() < 0.35:
            k = int(rng.integers(1, 4))
            weights = rng.dirichlet(np.ones(k))
            atoms = tuple((float(rng.uniform(1.0, 9.0)), float(w))
                          for w in weights)
            return QuasiFree(SpectralMeasure(atoms))
        k = int(rng.integers(2, 4))
        weights = rng.dirichlet(np.ones(k))
        return envelope([(float(w), build(depth + 1)) for w in weights])

    return build(1)
