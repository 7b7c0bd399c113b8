"""Free and spectral two-point functions against independent oracles."""

import numpy as np
import pytest

from schwingerlab import (DomainError, Grid, SpectralMeasure, TestFunction,
                          apply_isometry, covariance_kernel, free_two_point,
                          spectral_two_point)
from schwingerlab.axioms import point_group
from schwingerlab.fixtures import random_real_function, rng_from_seed
from schwingerlab.lattice import lattice_symbol, reflect_momentum


def kernel_direct(grid, m2):
    """Direct momentum summation for the covariance kernel (no FFT)."""
    n, a = grid.n_per_axis, grid.spacing
    k1 = 2.0 * np.pi * np.fft.fftfreq(n, d=a)
    out = np.zeros(grid.shape)
    for xidx in np.ndindex(grid.shape):
        acc = 0.0 + 0j
        for kidx in np.ndindex(grid.shape):
            ksq = sum((2.0 / a) ** 2 * np.sin(k1[i] * a / 2.0) ** 2 for i in kidx)
            phase = sum(k1[ki] * xi * a for ki, xi in zip(kidx, xidx))
            acc += np.exp(1j * phase) / (ksq + m2)
        out[xidx] = acc.real / grid.extent ** grid.d
    return out


def two_point_position_oracle(f, g, kernel):
    """a^(2d) sum_{x,y} f(x) C(x-y) g(y) by explicit displacement lookup."""
    grid = f.grid
    n = grid.n_per_axis
    acc = 0j
    for xidx in np.ndindex(grid.shape):
        for yidx in np.ndindex(grid.shape):
            disp = tuple((xi - yi) % n for xi, yi in zip(xidx, yidx))
            acc += f.values[xidx] * kernel[disp] * g.values[yidx]
    return acc * grid.cell ** 2


def random_complex_function(grid, seed):
    rng = rng_from_seed(seed)
    vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return TestFunction(grid, vals)


# ---------------------------------------------------------------------------
# SpectralMeasure
# ---------------------------------------------------------------------------

def test_atoms_sorted_and_merged():
    rho = SpectralMeasure(((4.0, 0.25), (1.0, 0.5), (4.0, 0.25)))
    assert rho.atoms == ((1.0, 0.5), (4.0, 0.5))


def test_zero_weight_atoms_dropped():
    rho = SpectralMeasure(((1.0, 1.0), (2.0, 0.0)))
    assert rho.atoms == ((1.0, 1.0),)


def test_measure_invariants_enforced():
    with pytest.raises(DomainError, match="floor"):
        SpectralMeasure(((1e-9, 1.0),))
    with pytest.raises(DomainError, match=">= 0"):
        SpectralMeasure(((1.0, -0.1),))
    with pytest.raises(DomainError, match="at least one atom"):
        SpectralMeasure(((1.0, 0.0),))


def test_measure_serialization_roundtrip():
    rho = SpectralMeasure(((1.0, 0.25), (2.5, 0.75)))
    assert SpectralMeasure.from_pairs(rho.to_pairs()) == rho


# ---------------------------------------------------------------------------
# free_two_point
# ---------------------------------------------------------------------------

def test_positive_for_real_equal_arguments(packet):
    val = free_two_point(packet, packet, 1.0)
    assert val.real > 0
    assert abs(val.imag) <= 1e-14 * val.real


def test_monotone_decreasing_in_mass(packet):
    vals = [free_two_point(packet, packet, m2).real for m2 in (0.5, 1.0, 2.0, 4.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_symmetric_bilinear(grid_2d_small):
    f = random_complex_function(grid_2d_small, 61)
    g = random_complex_function(grid_2d_small, 67)
    assert free_two_point(f, g, 1.3) == pytest.approx(
        free_two_point(g, f, 1.3), rel=1e-12)


@pytest.mark.parametrize("dim,n", [(1, 16), (2, 8)])
def test_matches_position_space_convolution_oracle(dim, n):
    grid = Grid(dim, n, 0.5)
    f = random_complex_function(grid, 71)
    g = random_complex_function(grid, 73)
    m2 = 1.7
    kernel = kernel_direct(grid, m2)
    want = two_point_position_oracle(f, g, kernel)
    got = free_two_point(f, g, m2)
    assert got == pytest.approx(want, rel=1e-10)


def test_grid_mismatch_rejected(grid_2d, grid_2d_small):
    f = random_complex_function(grid_2d, 79)
    g = random_complex_function(grid_2d_small, 79)
    with pytest.raises(DomainError, match="grid"):
        free_two_point(f, g, 1.0)


def test_mass_below_floor_rejected(packet):
    with pytest.raises(DomainError, match="floor"):
        free_two_point(packet, packet, 1e-9)


# ---------------------------------------------------------------------------
# spectral_two_point
# ---------------------------------------------------------------------------

def test_single_atom_equals_free(packet):
    rho = SpectralMeasure.delta(2.0)
    assert spectral_two_point(packet, packet, rho) == free_two_point(
        packet, packet, 2.0)


def test_half_half_mixture_is_the_average(packet):
    rho = SpectralMeasure(((1.0, 0.5), (4.0, 0.5)))
    want = 0.5 * free_two_point(packet, packet, 1.0) \
        + 0.5 * free_two_point(packet, packet, 4.0)
    assert spectral_two_point(packet, packet, rho) == pytest.approx(want, rel=1e-14)


def test_two_atoms_against_weighted_sum_oracle(grid_2d_small):
    f = random_complex_function(grid_2d_small, 83)
    g = random_complex_function(grid_2d_small, 89)
    rho = SpectralMeasure(((1.0, 0.3), (2.5, 0.9)))
    want = 0.3 * free_two_point(f, g, 1.0) + 0.9 * free_two_point(f, g, 2.5)
    assert spectral_two_point(f, g, rho) == pytest.approx(want, rel=1e-14)


def per_atom_two_point(f, g, rho):
    """One momentum sum per atom, accumulated in atom order."""
    w = lattice_symbol(f.grid)
    cross = reflect_momentum(f.hat) * g.hat
    total = 0j
    for m2, weight in rho.atoms:
        total += weight * np.sum(cross / (w + m2))
    return complex(total / f.grid.extent ** f.grid.d)


@pytest.mark.parametrize("grid", [Grid(1, 64, 0.5), Grid(2, 32, 0.25),
                                  Grid(3, 16, 0.5), Grid(2, 8, 0.3)],
                         ids=["1d", "2d", "3d", "2d_small"])
def test_spectral_two_point_is_bit_identical_to_per_atom_sums(grid):
    # evaluate's bits decide argmax witnesses such as euclidean worst_kind
    rng = rng_from_seed(113)
    for trial in range(18):
        f = random_complex_function(grid, 200 + trial)
        g = f if trial % 3 == 0 else random_complex_function(grid, 300 + trial)
        atoms = tuple((float(rng.uniform(0.05, 20.0)), float(rng.uniform(0.0, 1.0)))
                      for _ in range(trial + 1))
        rho = SpectralMeasure(atoms)
        assert spectral_two_point(f, g, rho) == per_atom_two_point(f, g, rho)
        assert free_two_point(f, g, atoms[0][0]) == per_atom_two_point(
            f, g, SpectralMeasure.delta(atoms[0][0]))


def test_monotone_under_measure_domination(packet):
    base = SpectralMeasure(((1.0, 0.5), (4.0, 0.5)))
    bigger = SpectralMeasure(base.atoms + ((2.0, 0.3),))
    assert spectral_two_point(packet, packet, bigger).real >= \
        spectral_two_point(packet, packet, base).real


# ---------------------------------------------------------------------------
# covariance_kernel
# ---------------------------------------------------------------------------

def test_kernel_even_and_peaked_at_zero(grid_2d):
    ker = covariance_kernel(grid_2d, 1.0)
    flipped = ker
    for ax in range(ker.ndim):
        flipped = np.roll(np.flip(flipped, axis=ax), 1, axis=ax)
    assert np.array_equal(ker, flipped) or np.allclose(ker, flipped, rtol=1e-13)
    assert ker[(0,) * grid_2d.d] > np.max(np.abs(np.delete(ker.ravel(), 0)))


def test_kernel_transform_recovers_the_symbol(grid_2d):
    m2 = 2.0
    ker = covariance_kernel(grid_2d, m2)
    hat = np.fft.fftn(ker) * grid_2d.cell
    want = 1.0 / (lattice_symbol(grid_2d) + m2)
    assert np.allclose(hat.real, want, rtol=1e-12, atol=1e-14)
    assert np.max(np.abs(hat.imag)) <= 1e-14


def test_kernel_matches_direct_momentum_sum_1d():
    grid = Grid(1, 16, 0.5)
    ker = covariance_kernel(grid, 1.2)
    assert np.allclose(ker, kernel_direct(grid, 1.2), rtol=1e-12, atol=1e-15)


def test_kernel_reproduces_two_point(grid_2d_small):
    f = random_complex_function(grid_2d_small, 97)
    g = random_complex_function(grid_2d_small, 101)
    ker = covariance_kernel(grid_2d_small, 1.0)
    want = two_point_position_oracle(f, g, ker)
    assert free_two_point(f, g, 1.0) == pytest.approx(want, rel=1e-10)


# ---------------------------------------------------------------------------
# Structural properties
# ---------------------------------------------------------------------------

def test_two_point_is_positive_semidefinite(grid_2d):
    rng = rng_from_seed(107)
    fs = [random_real_function(grid_2d, rng) for _ in range(8)]
    gram = np.array([[free_two_point(a, b, 1.0).real for b in fs] for a in fs])
    eigs = np.linalg.eigvalsh(0.5 * (gram + gram.T))
    assert eigs[0] >= -1e-10 * np.trace(gram)


def test_invariance_under_the_lattice_point_group(grid_2d):
    rng = rng_from_seed(109)
    f = random_real_function(grid_2d, rng)
    h = random_real_function(grid_2d, rng)
    base = free_two_point(f, h, 1.5)
    for iso in point_group(grid_2d):
        moved = free_two_point(apply_isometry(f, iso), apply_isometry(h, iso), 1.5)
        assert abs(moved - base) <= 1e-12 * max(1.0, abs(base))
