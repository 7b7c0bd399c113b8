"""Free and spectral two-point functions against independent oracles."""

import warnings

import numpy as np
import pytest

from schwingerlab import (DomainError, Grid, SpectralMeasure, TestFunction,
                          apply_isometry, free_two_point, spectral_two_point)
from schwingerlab.axioms import point_group
from schwingerlab.fixtures import random_real_functions, random_real_values, rng_from_seed
from schwingerlab.functional import MomentTable, QuasiFree, envelope
from schwingerlab.lattice import half_spectrum_rows, lattice_symbol, stacked_half_spectra
from schwingerlab.propagator import (MASS_FLOOR_SQ, _spectra, _weight_table, _weights,
                                     row_forms, row_grams, sobolev_norms, two_point_grams,
                                     two_point_pairs)
from oracles import covariance_kernel, half_multiplicity, half_row, reflect_momentum
from test_lattice import _BIT_GRIDS, _BIT_IDS, _bits_equal, random_complex_function, spectrum


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
    cross = reflect_momentum(spectrum(f)) * spectrum(g)
    total = 0j
    for m2, weight in rho.atoms:
        total += weight * np.sum(cross / (w + m2))
    return complex(total / f.grid.extent ** f.grid.d)


@pytest.mark.bits
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


@pytest.mark.bits
def test_spectra_rows_have_the_single_transform_bits(grid_2d, monkeypatch):
    fftn, batches = np.fft.fftn, []

    def counted(values, *args, **kwargs):
        batches.append(len(values))
        return fftn(values, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fftn", counted)
    fs = random_real_functions(grid_2d, rng_from_seed(5), 5)
    fs[2] = (0.5 - 2j) * fs[2]
    rows = _spectra(fs + [fs[0]])
    assert batches == [5]   # one batched transform of the distinct functions
    for f, row in zip(fs + [fs[0]], rows):
        assert _bits_equal(row, (fftn(f.values) * grid_2d.cell).ravel())
    other = random_real_functions(Grid(2, 32, 0.5), rng_from_seed(7), 1)[0]
    with pytest.raises(DomainError, match="one grid"):
        _spectra([fs[0], other])


@pytest.mark.bits
def test_complex_division_by_a_positive_real_is_the_reciprocal_multiply():
    # numpy divides complex by real as Smith does: s = 1/d, then both parts
    # times s, each plus or minus a zero product; the kernels rest on this
    rng = np.random.default_rng(2024)
    n = 4096
    z = np.empty(n, dtype=np.complex128)
    z.real = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300, 300, n)
    z.imag = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300, 300, n)
    z.imag[:256] = 0.0     # the k = 0 part of a real pair
    z.real[256:320] = 0.0
    z.real[320:384], z.imag[384:448] = -0.0, -0.0
    z[448:512] = complex(-0.0, -0.0)
    d = 10.0 ** rng.uniform(-6.0, 4.0, n)
    divided, multiplied = np.empty(2 * n, np.complex128), np.empty(2 * n, np.complex128)
    for got, want in [(np.divide(z, d), np.multiply(z, 1.0 / d)),
                      (np.divide(z, d, out=divided[::2]),
                       np.multiply(z, 1.0 / d, out=multiplied[::2]))]:
        assert np.array_equal(got, want)
        # a -0 part of z may come out as a zero of the other sign
        plain = ~((np.signbit(z.real) & (z.real == 0)) | (np.signbit(z.imag) & (z.imag == 0)))
        assert plain.sum() == n - 192
        assert _bits_equal(got[plain], want[plain])


def _divided_pairs(fs, gs, masses_sq, atoms):
    """two_point_pairs as one np.divide per mass: the oracle of its bits."""
    grid = fs[0].grid
    prod = np.array([(reflect_momentum(spectrum(f)) * spectrum(g)).ravel() for f, g in zip(fs, gs)])
    symbol = lattice_symbol(grid).ravel()
    scaled = np.empty_like(prod)
    sums = np.array([np.divide(prod, m2 + symbol, out=scaled).sum(axis=1)
                     for m2 in masses_sq]).T
    return np.cumsum(atoms * sums[:, None, :], axis=2)[:, :, -1] / grid.extent ** grid.d


def _reciprocal_grams(fs, masses_sq, atoms):
    """Grams as one matmul per mass, contracted with the atoms last: the
    per-mass route, an accuracy bound on two_point_grams."""
    grid = fs[0].grid
    hats = np.array([spectrum(f).ravel() for f in fs])
    negs = np.array([reflect_momentum(spectrum(f)).ravel() for f in fs])
    symbol = lattice_symbol(grid).ravel()
    sums = np.array([(negs * (1.0 / (m2 + symbol))) @ hats.T for m2 in masses_sq])
    return np.einsum("rm,mij->rij", atoms, sums) / grid.extent ** grid.d


def _half_spectrum_grams(fs, masses_sq, atoms):
    """two_point_grams as one matmul per row over the rows X_f = rows(Re f) +
    i rows(Im f) of every f, each mode weighted by its multiplicity; bilinear,
    so a complex row gives S2(u + i v, u' + i v') at once: the oracle of its bits."""
    grid = fs[0].grid
    x = np.array([half_row(f) for f in fs])
    symbol = lattice_symbol(grid)[..., :grid.n_per_axis // 2 + 1].ravel()
    props = atoms @ (1.0 / (np.asarray(masses_sq)[:, None] + symbol))
    grams = np.array([(x * np.tile(half_multiplicity(grid) * p, 2)) @ x.T
                      for p in props]) / grid.extent ** grid.d
    return grams.astype(np.complex128)


def _assert_near_per_mass(grams, fs, masses_sq, atoms, rel=1e-13):
    want = _reciprocal_grams(fs, masses_sq, atoms)
    assert np.max(np.abs(grams - want)) <= rel * np.max(np.abs(want))


@pytest.mark.bits
@pytest.mark.parametrize("grid_args", _BIT_GRIDS, ids=_BIT_IDS)
def test_kernels_are_the_per_mass_division_bits(grid_args):
    grid = Grid(*grid_args)
    rng = rng_from_seed(611)
    fs = random_real_functions(grid, rng, 5) + [random_complex_function(grid, 612)]
    gs = random_real_functions(grid, rng, 3) + [random_complex_function(grid, 613)] * 3
    masses_sq = np.array([MASS_FLOOR_SQ, 0.37, 1.0, 4.5, 19.0])
    atoms = rng.uniform(0.0, 1.0, (4, len(masses_sq)))
    atoms[atoms < 0.3] = 0.0
    for f_set, g_set in [(fs, fs), (fs, gs), (gs, fs[::-1])]:
        # copies: the kernels return a strided slice of the running sums
        assert _bits_equal(two_point_pairs(f_set, g_set, masses_sq, atoms).copy(),
                           _divided_pairs(f_set, g_set, masses_sq, atoms).copy())
    for f_set in (fs, gs):
        grams = two_point_grams(f_set, masses_sq, atoms)
        assert _bits_equal(grams, _half_spectrum_grams(f_set, masses_sq, atoms))
        _assert_near_per_mass(grams, f_set, masses_sq, atoms)


@pytest.mark.bits
@pytest.mark.parametrize("grid_args", _BIT_GRIDS, ids=_BIT_IDS)
def test_complex_grams_are_bilinear_in_the_real_parts(grid_args):
    grid = Grid(*grid_args)
    rng = rng_from_seed(941)
    masses_sq = np.array([MASS_FLOOR_SQ, 0.37, 1.0, 4.5])
    # f = u + i v and g = u' + i v': their Gram from the real parts' Gram
    c = np.array([[1.0, 1j, 0.0, 0.0], [0.0, 0.0, 1.0, 1j]])
    for trial in range(6):
        atoms = 10.0 ** rng.uniform(-3.0, 3.0, (1 + trial % 3, len(masses_sq)))
        values = random_real_values(grid, rng, 4)
        fs = [TestFunction(grid, values[0] + 1j * values[1]),
              TestFunction(grid, values[2] + 1j * values[3])]
        parts = [TestFunction(grid, v) for f in fs for v in (f.values.real, f.values.imag)]
        grams = two_point_grams(fs, masses_sq, atoms)
        want = c @ two_point_grams(parts, masses_sq, atoms) @ c.T
        assert grams.shape == (len(atoms), 2, 2)
        # two roundoff routes over 2 * modes terms: they part by up to 4.6e-15 * max|G|
        assert np.max(np.abs(grams - want)) <= 1e-14 * np.max(np.abs(grams))


@pytest.mark.bits
@pytest.mark.parametrize("grid_args", _BIT_GRIDS, ids=_BIT_IDS)
def test_real_stacks_keep_their_bits_after_a_complex_gram(grid_args):
    grid = Grid(*grid_args)
    values = random_real_values(grid, rng_from_seed(953), 4)
    z = random_complex_function(grid, 954)
    masses_sq, atoms = np.array([0.37, 1.0, 4.5]), np.array([[1.0, 0.0, 2.0], [0.5, 0.5, 0.0]])

    def results(after_complex):
        fs = [TestFunction(grid, v) for v in values]   # fresh: no cached rows
        if after_complex:   # rows of the real fs cached from a batch that holds z's parts
            two_point_grams([z] + fs[::-1], masses_sq, atoms)
            sobolev_norms([fs[1], z], 0.37)
        return two_point_grams(fs, masses_sq, atoms), sobolev_norms(fs, 0.37)
    cold = results(False)
    for got, want in zip(results(True), cold):
        assert _bits_equal(got, want)
    assert not np.any(cold[0].imag)


@pytest.mark.bits
@pytest.mark.parametrize("grid_args", _BIT_GRIDS, ids=_BIT_IDS)
def test_row_grams_agree_with_the_per_mass_route(grid_args):
    grid = Grid(*grid_args)
    rng = rng_from_seed(733)
    reals = random_real_functions(grid, rng, 4)
    complexes = [random_complex_function(grid, 734 + i) for i in range(3)]
    for trial in range(12):
        masses_sq = np.sort(10.0 ** rng.uniform(-6.0, 4.0, 1 + trial % 5))
        atoms = 10.0 ** rng.uniform(-6.0, 6.0, (1 + trial % 4, len(masses_sq)))
        atoms[rng.random(atoms.shape) < 0.3] = 0.0
        for fs in (reals, complexes, reals[:2] + complexes[:2]):
            _assert_near_per_mass(two_point_grams(fs, masses_sq, atoms), fs, masses_sq, atoms)


@pytest.mark.bits
@pytest.mark.parametrize("grid_args", _BIT_GRIDS, ids=_BIT_IDS)
def test_row_forms_are_the_diagonal_of_row_grams(grid_args):
    """Within 1e-14 of each atom row's largest form (3.3e-15 the worst measured) on real,
    complex and mixed stacks; a unit row reads one weight mu P_r(k) / L^d, the same bits by
    both routes and by the written-out table."""
    grid = Grid(*grid_args)
    rng = rng_from_seed(751)
    reals = random_real_functions(grid, rng, 4)
    complexes = [random_complex_function(grid, 752 + i) for i in range(4)]
    width = 2 * len(half_multiplicity(grid))
    picks = rng.choice(width, 6, replace=False)
    units = np.zeros((6, width))
    units[range(6), picks] = 1.0
    symbol = lattice_symbol(grid)[..., :grid.n_per_axis // 2 + 1].ravel()
    for trial in range(12):
        masses_sq = np.sort(10.0 ** rng.uniform(-6.0, 4.0, 1 + trial % 5))
        atoms = 10.0 ** rng.uniform(-6.0, 6.0, (1 + trial % 4, len(masses_sq)))
        atoms[rng.random(atoms.shape) < 0.3] = 0.0
        for fs in (reals, complexes, reals[:2] + complexes[:2]):
            x = stacked_half_spectra(fs)
            forms = row_forms(x, grid, masses_sq, atoms)
            diag = np.diagonal(row_grams(x, grid, masses_sq, atoms), axis1=-2, axis2=-1).T
            assert forms.shape == (len(fs), len(atoms)) and forms.dtype == x.dtype
            assert np.all(np.abs(forms - diag) <= 1e-14 * np.max(np.abs(diag), axis=0))
            stacked = row_forms(x.reshape(2, 2, -1), grid, masses_sq, atoms).reshape(forms.shape)
            assert np.all(np.abs(stacked - diag) <= 1e-14 * np.max(np.abs(diag), axis=0))
        props = atoms @ (1.0 / (masses_sq[:, None] + symbol))
        table = np.tile(half_multiplicity(grid) * props, 2)[:, picks].T / grid.extent ** grid.d
        got = row_forms(units, grid, masses_sq, atoms)
        assert _bits_equal(got, table)
        assert _bits_equal(got, np.diagonal(row_grams(units, grid, masses_sq, atoms),
                                            axis1=-2, axis2=-1).T)


@pytest.mark.parametrize("grid_args", _BIT_GRIDS, ids=_BIT_IDS)
def test_row_forms_that_leave_float64_raise_without_a_warning(grid_args):
    grid = Grid(*grid_args)
    x = half_spectrum_rows(grid, random_real_values(grid, rng_from_seed(757), 3))
    masses_sq, atoms = np.array([MASS_FLOOR_SQ, 1.0]), np.array([[1.0, 1.0], [0.0, 2.0]])
    squared, summed = x.copy(), x.copy()
    squared[1] *= 1e160                        # x * x leaves float64
    summed[1] = 1e154                          # x * x does not, its weighted sum does
    assert np.all(np.isfinite(summed * summed))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for stack, weights in ((squared, atoms), (squared * (1 - 1j), atoms),
                               (summed, atoms), (x, np.array([[1e306, 0.0]]))):
            with pytest.raises(DomainError, match="two-point values overflow"):
                row_forms(stack, grid, masses_sq, weights)


@pytest.mark.bits
@pytest.mark.parametrize("grid_args", _BIT_GRIDS[:3], ids=_BIT_IDS[:3])
def test_batched_grams_are_the_per_set_bits(grid_args):
    grid = Grid(*grid_args)
    rng = rng_from_seed(821)
    masses_sq = np.array([MASS_FLOOR_SQ, 0.37, 1.0, 4.5])
    atoms = 10.0 ** rng.uniform(-6.0, 6.0, (3, len(masses_sq)))
    for n, count in ((1, 1), (2, 3), (4, 4), (8, 2)):
        values = random_real_values(grid, rng, n * count)
        x = half_spectrum_rows(grid, values).reshape(count, n, -1)
        batched = row_grams(x, grid, masses_sq, atoms)
        assert batched.shape == (count, len(atoms), n, n) and batched.dtype == np.float64
        for t, got in enumerate(batched):
            # fresh functions: each set's own call pays its own transforms
            own = [TestFunction(grid, v) for v in values[t * n:(t + 1) * n]]
            assert _bits_equal(got.astype(np.complex128), two_point_grams(own, masses_sq, atoms))
    heavy = values[:4].copy()
    heavy[3] *= 1e160
    with pytest.raises(DomainError, match="overflow"):
        row_grams(half_spectrum_rows(grid, heavy).reshape(2, 2, -1), grid, masses_sq, atoms)


@pytest.mark.bits
@pytest.mark.parametrize("grid_args", _BIT_GRIDS, ids=_BIT_IDS)
def test_grams_and_norms_from_warm_tables_are_the_cold_bits(grid_args):
    grid = Grid(*grid_args)
    rng = rng_from_seed(907)
    values = [f.values for f in random_real_functions(grid, rng, 3)] + [
        random_complex_function(grid, 908).values]
    x = half_spectrum_rows(grid, random_real_values(grid, rng, 6)).reshape(3, 2, -1)
    model = envelope([(0.3, QuasiFree(SpectralMeasure.delta(1.0))),
                      (0.7, QuasiFree(SpectralMeasure(((0.37, 0.5), (4.5, 2.0)))))])
    _, masses_sq, atoms = model._atom_table

    def results():
        fs = [TestFunction(grid, v) for v in values]   # fresh: no cached spectra
        table = MomentTable(model, fs)
        return [two_point_grams(fs, masses_sq, atoms), two_point_grams(fs[:3], masses_sq, atoms),
                sobolev_norms(fs, 0.37), row_grams(x, grid, masses_sq, atoms),
                table.moments, table.cumulants, table.scales]
    _weight_table.cache_clear()
    cold = results()
    assert _weight_table.cache_info()[:2] == (3, 2)   # the model's table and the norm's
    warm = results()
    assert _weight_table.cache_info()[:2] == (8, 2)
    _weight_table.cache_clear()
    cleared = results()
    for c, w, r in zip(cold, warm, cleared):
        assert _bits_equal(w, c) and _bits_equal(r, c)
    fs = [TestFunction(grid, v) for v in values]
    assert _bits_equal(cold[0], _half_spectrum_grams(fs, masses_sq, atoms))


@pytest.mark.bits
@pytest.mark.parametrize("grid_args", _BIT_GRIDS, ids=_BIT_IDS)
def test_warm_tables_are_read_only_and_bounded(grid_args):
    grid = Grid(*grid_args)
    fs = random_real_functions(grid, rng_from_seed(913), 2)
    _weight_table.cache_clear()
    for i in range(10):
        model = envelope([(0.5, QuasiFree(SpectralMeasure.delta(1.0 + i))),
                          (0.5, QuasiFree(SpectralMeasure.delta(0.5)))])
        two_point_grams(fs, *model._atom_table[1:])
        assert _weight_table.cache_info().currsize <= 4
    assert _weight_table.cache_info()[:2] == (0, 10)
    table = _weights(grid, model._atom_table[1], model._atom_table[2])
    assert table.shape == (2, 2 * grid.n_per_axis ** (grid.d - 1) * (grid.n_per_axis // 2 + 1))
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 1.0


@pytest.mark.bits
def test_grams_of_no_functions_are_empty():
    grams = two_point_grams([], [1.0, 4.0], np.ones((3, 2)))
    assert grams.shape == (3, 0, 0) and grams.dtype == np.complex128


@pytest.mark.bits
def test_leaf_grams_of_leaves_that_share_masses(grid_2d_small):
    # five leaves over three masses: more rows than matmuls of the per-mass route
    leaves = [[(1.0, 1e-6), (4.0, 1.0)], [(1.0, 2.0), (4.0, 1e6)], [(1.0, 1.0)],
              [(4.0, 3.0), (0.5, 1e3)], [(0.5, 1.0), (1.0, 1.0), (4.0, 1.0)]]
    model = envelope([(0.2, QuasiFree(SpectralMeasure(tuple(atoms)))) for atoms in leaves])
    _, masses_sq, atoms = model._atom_table
    assert atoms.shape == (5, 3)
    rng = rng_from_seed(91)
    fs = random_real_functions(grid_2d_small, rng, 3) + [
        random_complex_function(grid_2d_small, 92)]
    grams = two_point_grams(fs, *model._atom_table[1:])
    assert grams.shape == (5, 4, 4)
    _assert_near_per_mass(grams, fs, masses_sq, atoms)
    for row, leaf in zip(grams, leaves):
        for i, f in enumerate(fs):
            for j, g in enumerate(fs):
                want = spectral_two_point(f, g, SpectralMeasure(tuple(leaf)))
                assert abs(row[i, j] - want) <= 1e-13 * np.max(np.abs(row))


def test_monotone_under_measure_domination(packet):
    base = SpectralMeasure(((1.0, 0.5), (4.0, 0.5)))
    bigger = SpectralMeasure(base.atoms + ((2.0, 0.3),))
    assert spectral_two_point(packet, packet, bigger).real >= \
        spectral_two_point(packet, packet, base).real


# ---------------------------------------------------------------------------
# covariance_kernel
# ---------------------------------------------------------------------------

@pytest.mark.bits
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
    fs = random_real_functions(grid_2d, rng, 8)
    gram = np.array([[free_two_point(a, b, 1.0).real for b in fs] for a in fs])
    eigs = np.linalg.eigvalsh(0.5 * (gram + gram.T))
    assert eigs[0] >= -1e-10 * np.trace(gram)


def test_invariance_under_the_lattice_point_group(grid_2d):
    rng = rng_from_seed(109)
    f, h = random_real_functions(grid_2d, rng, 2)
    base = free_two_point(f, h, 1.5)
    for iso in point_group(grid_2d):
        moved = free_two_point(apply_isometry(f, iso), apply_isometry(h, iso), 1.5)
        assert abs(moved - base) <= 1e-12 * max(1.0, abs(base))


# ---------------------------------------------------------------------------
# The lattice dispersion as a kernel oracle
# ---------------------------------------------------------------------------

def _slab_correlations(grid, m2, profile):
    """C_s(t) = S2(f_s, f_{s+t}), t = 0..N-1, of the time-slab functions f_t = profile on
    slice t, for the bases s = 0 and 3: per kernel (Grams, pairs) a (C_0, C_3) pair."""
    n = grid.n_per_axis
    slabs = []
    for t in range(n):
        vals = np.zeros(grid.shape)
        vals[t] = profile
        slabs.append(TestFunction(grid, vals))
    atoms = np.array([[1.0]])
    grams = two_point_grams(slabs, [m2], atoms)[0].real
    later = [[(s + t) % n for t in range(n)] for s in (0, 3)]
    return [[grams[s, idx] for s, idx in zip((0, 3), later)],
            [two_point_pairs([slabs[s]] * n, [slabs[i] for i in idx], [m2], atoms)[:, 0].real
             for s, idx in zip((0, 3), later)]]


@pytest.mark.parametrize("grid_args", _BIT_GRIDS, ids=_BIT_IDS)
def test_time_slab_correlations_obey_the_lattice_dispersion(grid_args):
    # C(t) = c sum_k0 exp(-i k0 t a) / (khat0^2 + M^2), M^2 = m^2 + phat^2 at the slabs' spatial
    # momentum; t -> t +- 1 adds up to 2 cos(k0 a) = 2 - a^2 khat0^2, so C(t+1) + C(t-1) -
    # lambda C(t) = -a^2 c sum_k0 exp(-i k0 t a), which is 0 off t = 0 (mod N)
    grid = Grid(*grid_args)
    n, a = grid.n_per_axis, grid.spacing
    profiles = [(np.ones(grid.shape[1:]), 0.0)]
    if grid.d >= 2:   # a real cosine at the lowest momentum 2 pi / L along axis 1
        cos = np.cos(2.0 * np.pi * np.arange(n) / n).reshape((n,) + (1,) * (grid.d - 2))
        profiles.append((np.broadcast_to(cos, grid.shape[1:]),
                         (2.0 / a) ** 2 * np.sin(np.pi / n) ** 2))
    for m2 in (1e-3, 1.0, 4.0, 100.0):
        for profile, p_hat2 in profiles:
            lam = 2.0 + a * a * (m2 + p_hat2)
            for c0, c3 in _slab_correlations(grid, m2, profile):
                bound = 1e-14 * lam * np.max(np.abs(c0))
                c = np.append(c0, c0[0])   # C(N) = C(0)
                assert np.max(np.abs(c[2:] + c[:-2] - lam * c[1:-1])) <= bound
                # a wrong negation map would pair slice 2s + t with slice s
                assert np.max(np.abs(c3 - c0)) <= bound
