"""Grids, test functions, Fourier conventions, isometries, time support."""

import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from schwingerlab import (DomainError, Grid, Isometry, SpectralMeasure, TestFunction,
                          apply_isometry, gaussian_packet, positive_time_support,
                          site_indicator)
from schwingerlab import fixtures, free_two_point, lattice
from schwingerlab.axioms import check_cluster_defect
from schwingerlab.functional import MomentTable, QuasiFree, cumulant, envelope, moment_numeric
from schwingerlab.fixtures import (random_positive_time_functions, random_real_functions,
                                   random_real_values, rng_from_seed)
from schwingerlab.lattice import (REALITY_TOL, half_spectrum, l2_norms, lattice_symbol,
                                  packet_values, positive_time_parts, positive_time_slices,
                                  stacked_half_spectra)
from schwingerlab.propagator import (_spectra, _weight_table, half_sobolev_norms, sobolev_norms,
                                     two_point_pairs)
from oracles import half_multiplicity, half_row, half_rows, reflect_momentum


def dft_oracle(f):
    """Direct O(V^2) transform: a^d sum_x exp(-i k.x) f(x)."""
    g = f.grid
    n, a = g.n_per_axis, g.spacing
    k1 = 2.0 * np.pi * np.fft.fftfreq(n, d=a)
    x1 = np.arange(n) * a
    out = np.zeros(g.shape, dtype=complex)
    for kidx in np.ndindex(g.shape):
        k = np.array([k1[i] for i in kidx])
        acc = 0j
        for xidx in np.ndindex(g.shape):
            x = np.array([x1[i] for i in xidx])
            acc += np.exp(-1j * np.dot(k, x)) * f.values[xidx]
        out[kidx] = acc * g.cell
    return out


def spectrum(f):
    """f^ in FFT layout, from the two-point kernel's transform."""
    return _spectra([f])[0].reshape(f.grid.shape)


def random_complex_function(grid, seed):
    rng = rng_from_seed(seed)
    vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return TestFunction(grid, vals)


# ---------------------------------------------------------------------------
# Grid
# ---------------------------------------------------------------------------

def test_grid_basics(grid_2d):
    assert grid_2d.shape == (32, 32)
    assert grid_2d.volume == 1024
    assert grid_2d.extent == 8.0
    assert grid_2d.cell == 0.25 ** 2


@pytest.mark.parametrize("bad", [
    dict(d=4, n_per_axis=16, spacing=1.0),
    dict(d=2, n_per_axis=12, spacing=1.0),   # not a power of two
    dict(d=2, n_per_axis=4, spacing=1.0),    # too small
    dict(d=2, n_per_axis=128, spacing=1.0),  # above the d<=2 cap
    dict(d=3, n_per_axis=32, spacing=1.0),   # above the d=3 cap
    dict(d=2, n_per_axis=16, spacing=0.0),
    dict(d=2, n_per_axis=32, spacing=1e300),   # a^d and L^d overflow
    dict(d=1, n_per_axis=64, spacing=1e154),   # L^2 overflows
    dict(d=3, n_per_axis=16, spacing=1e-110),  # a^d underflows to 0
    dict(d=2, n_per_axis=32, spacing=1e-160),  # the symbol's (2/a)^2 overflows
])
def test_grid_rejects_bad_parameters(bad):
    with pytest.raises(DomainError):
        Grid(**bad)


def test_signed_coordinates(grid_1d):
    t = grid_1d.signed_axis_coordinates()
    a, n = grid_1d.spacing, grid_1d.n_per_axis
    assert t[0] == 0.0
    assert t[1] == a
    assert t[n // 2] == -grid_1d.extent / 2
    assert t[-1] == -a


# ---------------------------------------------------------------------------
# Packets
# ---------------------------------------------------------------------------

def test_packet_unit_norm(grid_2d):
    f = gaussian_packet(grid_2d, [3.0, 5.0], 0.8, [2 * np.pi / 8.0, 0.0])
    assert f.l2_norm() == pytest.approx(1.0, abs=1e-12)


def test_is_real_reads_the_imaginary_part(grid_2d):
    vals = random_real_functions(grid_2d, rng_from_seed(8), 1)[0].values
    assert TestFunction(grid_2d, vals.real).is_real
    assert not TestFunction(grid_2d, vals + 1j * vals).is_real
    assert TestFunction(grid_2d, vals + 1e-15j).is_real
    assert not TestFunction(grid_2d, vals + 10 * REALITY_TOL * 1j).is_real
    f = TestFunction(grid_2d, vals - 1e-15j)
    assert f.is_real and f.is_real       # the same flag on every read


def test_zero_momentum_packet_real_positive_symmetric(grid_2d):
    f = gaussian_packet(grid_2d, [0.0, 0.0], 1.0)
    assert f.is_real
    assert np.all(f.values.real > 0)
    # centered at the origin the packet is even under every axis reflection
    for ax in range(2):
        refl = apply_isometry(f, Isometry.axis_reflection(ax))
        assert np.allclose(refl.values, f.values, atol=1e-15)


def test_disjoint_support_packets_nearly_orthogonal():
    # 6-sigma neighbourhoods disjoint on both sides of the torus
    grid = Grid(1, 64, 0.25)
    w = 0.6
    f = gaussian_packet(grid, [2.0], w)
    g = gaussian_packet(grid, [2.0 + 12 * w], w)
    overlap = abs(f.inner(g))
    # direct-summation oracle for the same overlap
    direct = abs(grid.cell * np.sum(np.conj(f.values) * g.values))
    assert overlap == pytest.approx(direct, rel=1e-12)
    assert overlap < 1e-8


def _packet_loop(grid, center, width, momentum):
    """The per-axis, per-image loop: the oracle of gaussian_packet's bits."""
    c = np.atleast_1d(np.asarray(center, dtype=float))
    p = np.atleast_1d(np.asarray(momentum, dtype=float))
    x = grid.axis_coordinates()
    axes = []
    for i in range(grid.d):
        acc = np.zeros(grid.n_per_axis, dtype=np.complex128)
        for m in range(-3, 4):
            xi = x - c[i] + m * grid.extent
            acc += np.exp(-(xi ** 2) / (2.0 * width ** 2) + 1j * p[i] * xi)
        axes.append(acc)
    vals = reduce(np.multiply.outer, axes) if grid.d > 1 else axes[0]
    return vals / math.sqrt(grid.cell * float(np.sum(np.abs(vals) ** 2)))


_BIT_GRIDS = [(1, 64, 0.5), (2, 32, 0.25), (3, 16, 0.5), (2, 8, 1.0)]
_BIT_IDS = ["1d", "2d", "3d", "coarse"]   # coarse: L/8 <= 2a, so every width is 2a


def _bits_equal(a, b):
    """Equal bit patterns, so signed zeros count too."""
    return np.array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


@pytest.mark.bits
@pytest.mark.parametrize("grid_args", _BIT_GRIDS, ids=_BIT_IDS)
def test_packet_is_bit_identical_to_the_image_loop(grid_args):
    grid = Grid(*grid_args)
    rng = np.random.default_rng(31)
    L = grid.extent
    rows = []
    for trial in range(40):
        center = rng.uniform(-0.2 * L, 1.2 * L, grid.d)
        width = rng.uniform(2 * grid.spacing, L / 4)
        modes = rng.integers(-2, 3, grid.d) if trial % 3 else np.zeros(grid.d)
        momentum = 2 * np.pi / L * modes if trial % 4 else rng.normal(size=grid.d)
        got = gaussian_packet(grid, center, width, momentum).values
        want = _packet_loop(grid, center, width, momentum)
        # bit patterns, so signed zeros count too
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        rows.append((center, width, momentum))
    # the same packets as the rows of one stacked call, plus a width whose
    # square is one ulp apart under libm pow and numpy's square
    rows.append((rows[1][0], 0.9560730566603792, rows[1][2]))
    centers, widths, momenta = zip(*rows)
    stacked = packet_values(grid, np.array(centers), widths, np.array(momenta))
    assert stacked.shape == (len(rows),) + grid.shape
    for got, (center, width, momentum) in zip(stacked, rows):
        assert _bits_equal(got, _packet_loop(grid, center, width, momentum))


def _real_function_recipe(grid, rng, redraws):
    """One probe at a time: the oracle of random_real_functions' bits and draws."""
    def packet():
        L, lo = grid.extent, 2.0 * grid.spacing
        center = rng.uniform(0.0, L, size=grid.d)
        width = rng.uniform(lo, L / 8.0) if L / 8.0 > lo else lo
        modes = rng.integers(-2, 3, size=grid.d)
        return gaussian_packet(grid, center, width, 2.0 * np.pi / L * modes).values

    vals = packet().copy()
    if rng.random() < 0.5:
        vals = vals + rng.uniform(-1.0, 1.0) * packet()
    real = TestFunction(grid, vals.real)
    norm = real.l2_norm()
    if norm < 1e-12:
        redraws.append(1)
        return _real_function_recipe(grid, rng, redraws)
    return (1.0 / norm) * real


def _assert_batch_matches_the_recipe(grid, seeds, counts):
    redraws = []
    for seed in seeds:
        for count in counts:
            batch_rng, probe_rng = rng_from_seed(seed), rng_from_seed(seed)
            got = random_real_functions(grid, batch_rng, count)
            want = [_real_function_recipe(grid, probe_rng, redraws) for _ in range(count)]
            assert len(got) == count
            for f, g in zip(got, want):
                assert _bits_equal(f.values, g.values)
            assert batch_rng.random() == probe_rng.random()
    return len(redraws)


@pytest.mark.parametrize("grid_args", _BIT_GRIDS, ids=_BIT_IDS)
def test_random_real_functions_are_the_per_probe_bits(grid_args):
    grid = Grid(*grid_args)
    assert random_real_functions(grid, rng_from_seed(1), 0) == []
    _assert_batch_matches_the_recipe(grid, range(4), (1, 7, 24))


def _force_redraws(monkeypatch):
    """Packets centered at x0 < L/6 get an exactly zero real part, so a
    one-packet probe there (and a two-packet probe with both there) is
    redrawn.  Returns the list of stacked packet calls' sizes."""
    build, calls = lattice.packet_values, []

    def imaginary_near_the_origin(grid, centers, widths, momenta):
        calls.append(len(widths))
        vals = build(grid, centers, widths, momenta)
        near = np.asarray(centers)[:, 0] < grid.extent / 6
        vals[near] = 1j * np.abs(vals[near])
        return vals

    monkeypatch.setattr(lattice, "packet_values", imaginary_near_the_origin)
    monkeypatch.setattr(fixtures, "packet_values", imaginary_near_the_origin)
    return calls


@pytest.mark.parametrize("grid_args", _BIT_GRIDS, ids=_BIT_IDS)
def test_random_real_functions_redraw_as_the_per_probe_recipe(grid_args, monkeypatch):
    _force_redraws(monkeypatch)
    grid = Grid(*grid_args)
    assert _assert_batch_matches_the_recipe(grid, range(3), (1, 7, 24)) >= 5


@pytest.mark.bits
@pytest.mark.parametrize("grid_args", _BIT_GRIDS, ids=_BIT_IDS)
@pytest.mark.parametrize("redraw", [False, True], ids=["drawn", "redrawn"])
def test_probe_values_are_the_real_parts_of_the_functions(grid_args, redraw, monkeypatch):
    calls = _force_redraws(monkeypatch) if redraw else []
    grid = Grid(*grid_args)
    assert random_real_values(grid, rng_from_seed(1), 0).shape == (0,) + grid.shape
    for seed in range(3):
        for count in (1, 7, 24):
            value_rng, function_rng = rng_from_seed(seed), rng_from_seed(seed)
            values = random_real_values(grid, value_rng, count)
            fs = random_real_functions(grid, function_rng, count)
            assert values.dtype == np.float64 and values.shape == (count,) + grid.shape
            assert _bits_equal(values, [f.values.real for f in fs])
            # +0.0: zero, with the sign bit clear
            assert _bits_equal([f.values.imag for f in fs], np.zeros(values.shape))
            assert value_rng.random() == function_rng.random()
    # a redraw is one more stacked call than the 2 x 3 x 3 calls asked for
    assert len(calls) > 18 if redraw else calls == []


def test_no_positive_time_functions_draw_nothing():
    rng = rng_from_seed(3)
    assert random_positive_time_functions(Grid(2, 16, 0.5), rng, 0) == []
    assert rng.random() == rng_from_seed(3).random()


def _gate(f):
    """positive_time_parts of f alone."""
    return TestFunction(f.grid, positive_time_parts(f.grid, f.values[None])[0])


def _positive_time_recipe(grid, rng):
    """One probe at a time: the oracle of random_positive_time_functions'
    bits and draws."""
    n, a, L = grid.n_per_axis, grid.spacing, grid.extent
    center = rng.uniform(0.0, L, size=grid.d)
    lo, hi = 2.0 * a, (n // 2 - 2) * a
    center[0] = rng.uniform(lo, hi) if hi > lo else lo
    w_hi = max(2.0 * a, min(L / 8.0, n // 8 * a))
    width = rng.uniform(2.0 * a, w_hi) if w_hi > 2.0 * a else 2.0 * a
    momentum = 2.0 * np.pi / L * rng.integers(-2, 3, size=grid.d)
    packet = gaussian_packet(grid, center, width, momentum)
    real = TestFunction(grid, packet.values.real)
    if real.l2_norm() < 1e-12:
        real = TestFunction(grid, packet.values.imag)
    return _gate(real)


@pytest.mark.bits
@pytest.mark.parametrize("grid_args", _BIT_GRIDS, ids=_BIT_IDS)
@pytest.mark.parametrize("imaginary", [False, True], ids=["real", "fallback"])
def test_random_positive_time_functions_are_the_per_probe_bits(grid_args, imaginary,
                                                               monkeypatch):
    if imaginary:
        # every other packet purely imaginary: its real part has norm 0
        build = lattice.packet_values

        def alternate(grid, centers, widths, momenta):
            vals = build(grid, centers, widths, momenta)
            odd = np.asarray(centers)[:, -1] < grid.extent / 2
            vals[odd] = 1j * np.abs(vals[odd])
            return vals

        monkeypatch.setattr(lattice, "packet_values", alternate)
        monkeypatch.setattr(fixtures, "packet_values", alternate)
    grid = Grid(*grid_args)
    for seed in range(6):
        for count in (1, 3, 8):
            batch_rng, probe_rng = rng_from_seed(seed), rng_from_seed(seed)
            got = random_positive_time_functions(grid, batch_rng, count)
            want = [_positive_time_recipe(grid, probe_rng) for _ in range(count)]
            assert len(got) == count
            for f, g in zip(got, want):
                assert _bits_equal(f.values, g.values)
            assert batch_rng.random() == probe_rng.random()


def test_packet_width_preconditions(grid_2d):
    with pytest.raises(DomainError, match="2\\*spacing"):
        gaussian_packet(grid_2d, [4.0, 4.0], 0.3)
    with pytest.raises(DomainError, match="L/4"):
        gaussian_packet(grid_2d, [4.0, 4.0], 3.0)


def test_site_indicator_unit_norm(grid_2d):
    f = site_indicator(grid_2d, (5, 7))
    assert f.l2_norm() == pytest.approx(1.0, rel=1e-14)
    assert np.count_nonzero(f.values) == 1


# ---------------------------------------------------------------------------
# Fourier conventions
# ---------------------------------------------------------------------------

def test_hat_matches_direct_oracle(grid_2d_small):
    f = random_complex_function(grid_2d_small, 9)
    assert np.allclose(spectrum(f), dft_oracle(f), rtol=1e-12, atol=1e-12)


def test_constant_function_is_a_zero_momentum_peak(grid_1d):
    f = TestFunction(grid_1d, np.ones(grid_1d.shape))
    h = spectrum(f)
    assert h[0] == pytest.approx(grid_1d.cell * grid_1d.volume)
    assert np.max(np.abs(h[1:])) <= 1e-12


@pytest.mark.bits
@pytest.mark.parametrize("grid_args", _BIT_GRIDS, ids=_BIT_IDS)
def test_half_spectrum_multiplicities_fold_the_full_grid(grid_args):
    grid = Grid(*grid_args)
    symbol, mu = half_spectrum(grid)
    assert np.array_equal(mu, half_multiplicity(grid)) and mu.sum() == grid.volume
    assert np.array_equal(symbol, lattice_symbol(grid)[..., :grid.n_per_axis // 2 + 1].ravel())
    assert not (symbol.flags.writeable or mu.flags.writeable)
    # Parseval on the half grid: sum mu |h|^2 = sum |f^|^2, for each real part
    f = random_complex_function(grid, 21)
    for part in (f.values.real, f.values.imag):
        full = np.sum(np.abs(np.fft.fftn(part)) ** 2)
        assert abs(np.sum(mu * np.abs(np.fft.rfftn(part).ravel()) ** 2) - full) <= 1e-14 * full


@pytest.mark.bits
def test_stacked_half_spectra_fill_the_caches_with_the_single_transform_bits():
    for grid_args in _BIT_GRIDS:
        grid = Grid(*grid_args)
        fs = random_real_functions(grid, rng_from_seed(5), 5)
        fs[2] = (0.5 - 2j) * fs[2]
        modes = grid.n_per_axis ** (grid.d - 1) * (grid.n_per_axis // 2 + 1)
        stacked_half_spectra(fs[1:2])   # one transform cached beforehand
        for stack, dtype in ((fs + [fs[0]], np.complex128), (fs[:2] + fs[3:], np.float64)):
            rows = stacked_half_spectra(stack)
            # one row per function; float64 exactly when every f is real
            assert rows.shape == (len(stack), 2 * modes) and rows.dtype == dtype
            for f, row in zip(stack, rows):
                re, *im = half_rows(f)   # one unbatched transform per part
                want = re + 1j * im[0] if im else re
                assert f._half.dtype == (np.complex128 if im else np.float64)
                assert _bits_equal(f._half, want) and _bits_equal(row, want.astype(dtype))
                assert not f._half.flags.writeable
        other = random_real_functions(Grid(grid.d, grid.n_per_axis, 2 * grid.spacing),
                                      rng_from_seed(7), 1)[0]
        with pytest.raises(DomainError, match="one grid"):
            stacked_half_spectra([fs[0], other])


def test_every_entry_point_raises_the_one_grid_error():
    grid, other = Grid(2, 16, 0.5), Grid(2, 16, 0.25)
    f, g = (random_real_functions(gr, rng_from_seed(3), 1)[0] for gr in (grid, other))
    model = envelope([(0.5, QuasiFree(SpectralMeasure.delta(1.0))),
                      (0.5, QuasiFree(SpectralMeasure.delta(4.0)))])
    calls = [lambda: f + g, lambda: f - g, lambda: f.inner(g),
             lambda: stacked_half_spectra([f, g]),
             lambda: two_point_pairs([f], [g], [1.0], np.array([[1.0]])),
             lambda: MomentTable(model, [f, g]), lambda: moment_numeric(model, [f, g]),
             lambda: check_cluster_defect(model, f, g, [4])]
    messages = set()
    for call in calls:
        with pytest.raises(DomainError, match="one grid") as info:
            call()
        messages.add(str(info.value))
    assert messages == {"test functions must all live on one grid"}


@pytest.mark.bits
def test_negate_axes_gathers_the_reflected_transform():
    for grid_args in _BIT_GRIDS:
        grid = Grid(*grid_args)
        hats = np.stack([spectrum(random_complex_function(grid, seed)) for seed in (4, 5)])
        axes = tuple(range(1, grid.d + 1))
        reflected = lattice.negate_axes(hats, axes)   # every transform axis at once
        for hat, got in zip(hats, reflected):
            assert _bits_equal(got, reflect_momentum(hat))
        assert _bits_equal(lattice.negate_axes(reflected, axes), hats)   # an involution


def test_reality_symmetry(grid_2d):
    f = random_real_functions(grid_2d, rng_from_seed(3), 1)[0]
    assert np.allclose(reflect_momentum(spectrum(f)), np.conj(spectrum(f)),
                       rtol=1e-12, atol=1e-14)


def test_parseval_with_stated_weights(grid_2d):
    f = random_complex_function(grid_2d, 11)
    pos = grid_2d.cell * np.sum(np.abs(f.values) ** 2)
    mom = np.sum(np.abs(spectrum(f)) ** 2) / grid_2d.extent ** grid_2d.d
    assert pos == pytest.approx(mom, rel=1e-12)


def test_fourier_intertwines_translation_with_phase(grid_1d):
    f = random_complex_function(grid_1d, 17)
    shift = 5
    moved = apply_isometry(f, Isometry.translation([shift]))
    k = 2 * np.pi * np.fft.fftfreq(grid_1d.n_per_axis, d=grid_1d.spacing)
    phase = np.exp(-1j * k * shift * grid_1d.spacing)
    assert np.allclose(spectrum(moved), phase * spectrum(f), rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# Sobolev norm
# ---------------------------------------------------------------------------

def test_sobolev_monotone_in_mass(packet):
    norms = [sobolev_norms([packet], m2)[0] for m2 in (0.5, 1.0, 2.0, 4.0)]
    assert all(b < a for a, b in zip(norms, norms[1:]))


def test_sobolev_equals_free_two_point_for_real_f(grid_2d):
    f = random_real_functions(grid_2d, rng_from_seed(23), 1)[0]
    for m2 in (1.0, 4.0):
        assert sobolev_norms([f], m2)[0] == pytest.approx(
            math.sqrt(free_two_point(f, f, m2).real), rel=1e-12)


def test_sobolev_homogeneity_and_mass_bound(packet):
    assert sobolev_norms([3.0 * packet], 2.0)[0] == pytest.approx(
        3.0 * sobolev_norms([packet], 2.0)[0], rel=1e-12)
    m2 = 2.0
    assert sobolev_norms([packet], m2)[0] <= packet.l2_norm() / math.sqrt(m2) + 1e-12


@pytest.mark.bits
@pytest.mark.parametrize("grid_args", _BIT_GRIDS, ids=_BIT_IDS)
def test_sobolev_norms_are_the_per_function_bits(grid_args):
    grid = Grid(*grid_args)
    fs = random_real_functions(grid, rng_from_seed(5), 6) + [
        random_complex_function(grid, 6), TestFunction.zeros(grid)]
    symbol = lattice_symbol(grid)[..., :grid.n_per_axis // 2 + 1].ravel()
    for m2 in (1e-6, 0.37, 4.0, 1e300):
        # each row's pairwise sum of |X_f|^2 over the half grid, mu / (khat^2 + m2) per mode
        w = np.tile(half_multiplicity(grid) / (symbol + m2), 2)
        want = [math.sqrt(float(np.sum((x * x.conj()).real * w)) / grid.extent ** grid.d)
                for x in map(half_row, fs)]
        assert _bits_equal(sobolev_norms(fs, m2), want)
        assert _bits_equal([sobolev_norms([f], m2)[0] for f in fs], want)


@pytest.mark.bits
@pytest.mark.parametrize("grid_args", _BIT_GRIDS, ids=_BIT_IDS)
def test_half_spectrum_norms_agree_with_the_full_spectrum_sum(grid_args):
    grid = Grid(*grid_args)
    fs = random_real_functions(grid, rng_from_seed(15), 4) + [
        random_complex_function(grid, 16), (0.5 - 2j) * random_real_functions(
            grid, rng_from_seed(17), 1)[0], TestFunction.zeros(grid)]
    for m2 in (1e-6, 0.37, 4.0):
        terms = np.abs(_spectra(fs)) ** 2 / (lattice_symbol(grid).ravel() + m2)
        want = np.sqrt(terms.sum(axis=1) / grid.extent ** grid.d)
        assert np.all(np.abs(sobolev_norms(fs, m2) - want) <= 1e-14 * want)


def test_sobolev_rejects_nonpositive_mass(packet):
    # and a non-finite one, before the weight cache is read
    before = _weight_table.cache_info()
    for m2 in (0.0, -1.0, math.nan, math.inf, -math.inf):
        # the message names the public entry point, whichever route raised it
        with pytest.raises(DomainError, match="^sobolev_norms needs a finite m2 > 0"):
            sobolev_norms([packet], m2)
        with pytest.raises(DomainError, match="^sobolev_norms needs a finite m2 > 0"):
            half_sobolev_norms(packet.grid, half_row(packet)[None], m2)
    assert _weight_table.cache_info() == before


def test_sobolev_norms_of_no_functions_are_empty():
    norms = sobolev_norms([], 1.0)
    assert norms.shape == (0,) and norms.dtype == np.float64


# ---------------------------------------------------------------------------
# Isometries
# ---------------------------------------------------------------------------

@pytest.mark.bits
def test_identity_isometry(grid_2d):
    f = random_complex_function(grid_2d, 29)
    out = apply_isometry(f, Isometry.translation((0, 0)))
    assert np.array_equal(out.values, f.values)


@pytest.mark.bits
def test_time_reflection_is_an_involution(grid_2d):
    f = random_complex_function(grid_2d, 31)
    twice = apply_isometry(apply_isometry(f, Isometry.time_reflection()),
                           Isometry.time_reflection())
    assert np.array_equal(twice.values, f.values)


def test_time_reflection_maps_slices_across_the_link(grid_1d):
    f = random_complex_function(grid_1d, 37)
    out = apply_isometry(f, Isometry.time_reflection())
    n = grid_1d.n_per_axis
    for t in range(n):
        assert out.values[t] == f.values[n - 1 - t]


@pytest.mark.bits
def test_full_period_translation_is_identity(grid_2d):
    f = random_complex_function(grid_2d, 41)
    out = apply_isometry(f, Isometry.translation([grid_2d.n_per_axis, 0]))
    assert np.array_equal(out.values, f.values)


@pytest.mark.bits
def test_rotation_has_order_four(grid_2d):
    f = random_complex_function(grid_2d, 43)
    rot = Isometry.rotation(0, 1)
    out = f
    for _ in range(4):
        out = apply_isometry(out, rot)
    assert np.array_equal(out.values, f.values)


def test_isometries_preserve_l2_norm(grid_2d):
    f = random_complex_function(grid_2d, 47)
    for iso in (Isometry.translation([3, 9]), Isometry.rotation(0, 1),
                Isometry.axis_reflection(1), Isometry.time_reflection()):
        assert apply_isometry(f, iso).l2_norm() == pytest.approx(
            f.l2_norm(), rel=1e-13)


@settings(max_examples=20, derandomize=True)
@given(st.integers(min_value=0, max_value=10_000))
def test_isometry_norm_preservation_property(seed):
    grid = Grid(2, 8, 0.5)
    f = random_complex_function(grid, seed)
    for iso in (Isometry.translation([1, 2]), Isometry.rotation(0, 1),
                Isometry.axis_reflection(0), Isometry.time_reflection()):
        out = apply_isometry(f, iso)
        assert sorted(np.abs(out.values).ravel()) == pytest.approx(
            sorted(np.abs(f.values).ravel()))


def test_isometry_rejects_incompatible_parameters(grid_1d):
    f = random_complex_function(grid_1d, 53)
    with pytest.raises(DomainError):
        apply_isometry(f, Isometry.translation([1, 2]))
    with pytest.raises(DomainError):
        apply_isometry(f, Isometry.rotation(0, 1))
    with pytest.raises(DomainError):
        apply_isometry(f, Isometry("wiggle"))


# ---------------------------------------------------------------------------
# Time support
# ---------------------------------------------------------------------------

def test_positive_time_support_cases(grid_2d):
    L = grid_2d.extent
    # a raw Gaussian tail never reaches 1e-14 at these widths, so the
    # positive-time constructions gate the packet explicitly
    gated = _gate(gaussian_packet(grid_2d, [L / 4, L / 2], L / 16))
    assert positive_time_support(gated)
    straddling = gaussian_packet(grid_2d, [0.0, L / 2], L / 16)
    assert not positive_time_support(straddling)
    assert positive_time_support(TestFunction.zeros(grid_2d))


def test_positive_time_part_zeroes_the_gated_slices(grid_2d):
    f = gaussian_packet(grid_2d, [2.0, 4.0], 1.0)
    gated = _gate(f)
    t = grid_2d.signed_axis_coordinates()
    assert np.all(gated.values[t < grid_2d.spacing / 2] == 0)
    assert gated.l2_norm() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.bits
@pytest.mark.parametrize("grid_args", _BIT_GRIDS, ids=_BIT_IDS)
def test_positive_time_support_is_vanishing_off_the_gate_slices(grid_args):
    grid = Grid(*grid_args)
    n, rest = grid.n_per_axis, (0,) * (grid.d - 1)
    slices = positive_time_slices(grid)
    # the strictly positive slices t = a .. (N/2 - 1) a, by site index
    assert np.array_equal(np.flatnonzero(slices), np.arange(1, n // 2))
    # a single site is supported at positive times exactly on a gate slice:
    # t = 0 is not, t = a is
    assert not positive_time_support(site_indicator(grid, (0,) + rest))
    assert positive_time_support(site_indicator(grid, (1,) + rest))
    for i in range(n):
        assert positive_time_support(site_indicator(grid, (i,) + rest)) == slices[i]
    # every gated function passes; one value just above the tolerance off the slices fails
    rng = rng_from_seed(41)
    for f in random_positive_time_functions(grid, rng, 4) + [
            _gate(g) for g in random_real_functions(grid, rng, 4)]:
        assert np.all(f.values[~slices] == 0)
        assert positive_time_support(f)
        for i in (0, n // 2, n - 1):
            vals = f.values.copy()
            vals[(i,) + rest] = 2 * REALITY_TOL
            assert not positive_time_support(TestFunction(grid, vals))
            vals[(i,) + rest] = REALITY_TOL
            assert positive_time_support(TestFunction(grid, vals))


@pytest.mark.bits
@pytest.mark.parametrize("grid_args", _BIT_GRIDS, ids=_BIT_IDS)
def test_batch_l2_norms_are_the_per_function_bits(grid_args):
    grid = Grid(*grid_args)
    fs = random_real_functions(grid, rng_from_seed(43), 6) + [
        random_complex_function(grid, 44), site_indicator(grid, (3,) * grid.d),
        gaussian_packet(grid, [grid.extent / 3] * grid.d, 2 * grid.spacing),
        TestFunction.zeros(grid)]
    if grid.d > 1:   # its values keep the swapped axes' memory layout
        fs += [apply_isometry(f, Isometry.rotation(0, 1)) for f in fs[:6]]
    values = np.array([f.values for f in fs])
    want = [f.l2_norm() for f in fs]
    assert _bits_equal(l2_norms(grid, values), want)
    assert _bits_equal(l2_norms(grid, values.reshape(len(fs), -1)), want)
    assert _bits_equal(l2_norms(grid, values[::-1]), want[::-1])
    # the former l2_norm, sqrt(Re <f, f>), keeps its bits on C-ordered values; its np.sum
    # ran in memory order, so on a rotated function's it could differ in the last bit
    assert _bits_equal(want[:10], [math.sqrt(f.inner(f).real) for f in fs[:10]])
    # a real batch is summed as complex, as TestFunction holds it
    real = values[:6].real
    assert _bits_equal(l2_norms(grid, real), want[:6])


def test_positive_time_part_needs_some_support(grid_2d):
    # a function living entirely at negative times cannot be gated
    vals = np.zeros(grid_2d.shape, dtype=complex)
    vals[grid_2d.n_per_axis - 2, 0] = 1.0
    with pytest.raises(DomainError, match="no support"):
        _gate(TestFunction(grid_2d, vals))


def test_test_function_values_are_immutable(grid_1d):
    f = TestFunction(grid_1d, np.ones(grid_1d.shape))
    with pytest.raises(ValueError):
        f.values[0] = 2.0


def _two_mass_model():
    return envelope([(0.5, QuasiFree(SpectralMeasure.delta(1.0))),
                     (0.5, QuasiFree(SpectralMeasure.delta(4.0)))])


@pytest.mark.bits
def test_copy_false_over_a_writable_batch_keeps_its_values():
    grid, model = Grid(2, 16, 0.5), _two_mass_model()
    base = np.array([f.values for f in random_real_functions(grid, rng_from_seed(31), 4)])
    original = base.copy()
    fs = [TestFunction(grid, v, copy=False) for v in base]
    before = cumulant(model, fs), sobolev_norms(fs, 1.0)
    base[0] *= 2   # a writable base: the rows were copied, so nothing moves
    assert not any(np.shares_memory(f.values, base) for f in fs)
    assert all(_bits_equal(f.values, v) for f, v in zip(fs, original))
    fresh = [TestFunction(grid, v) for v in original]
    assert cumulant(model, fs) == before[0] == cumulant(model, fresh)
    assert _bits_equal(sobolev_norms(fs, 1.0), before[1])
    assert _bits_equal(sobolev_norms(fresh, 1.0), before[1])
    # a read-only view of a writable array is copied too
    view = base[1]
    view.setflags(write=False)
    assert not np.shares_memory(TestFunction(grid, view, copy=False).values, base)


@pytest.mark.bits
def test_copy_false_keeps_the_rows_of_a_read_only_batch():
    for grid in (Grid(1, 16, 0.5), Grid(2, 16, 0.5)):
        base = np.array([f.values for f in random_real_functions(grid, rng_from_seed(37), 3)])
        base.setflags(write=False)
        fs = [TestFunction(grid, v, copy=False) for v in base]
        assert all(np.shares_memory(f.values, base) for f in fs)
        # the package's own batches are made read-only before their rows are wrapped
        probes = random_positive_time_functions(grid, rng_from_seed(38), 3)
        assert np.shares_memory(probes[0].values.base, probes[2].values)
        packet = gaussian_packet(grid, [4.0] * grid.d, 1.0, [0.0] * grid.d)
        assert packet.values.base is not None and not packet.values.base.flags.writeable
        assert np.shares_memory(packet.values, packet.values.base)


@pytest.mark.bits
def test_copy_false_over_an_owned_writable_array_keeps_its_values():
    grid = Grid(2, 16, 0.5)
    a = np.array(gaussian_packet(grid, [4.0, 4.0], 1.0, [0.0, 0.0]).values)
    original, v = a.copy(), a[:]
    f = TestFunction(grid, a, copy=False)
    before = sobolev_norms([f], 1.0)
    v[3, 3] = 2.0   # a writable array: it was copied, so the caller's view moves nothing
    assert not np.shares_memory(f.values, a) and _bits_equal(f.values, original)
    assert _bits_equal(sobolev_norms([f], 1.0), before)
    assert _bits_equal(sobolev_norms([TestFunction(grid, original)], 1.0), before)
    assert sobolev_norms([TestFunction(grid, a)], 1.0)[0] != before[0]
    # a writable view of an owner made read-only after the view was taken
    owner = np.array(original)
    view = owner[:]
    owner.setflags(write=False)
    assert not np.shares_memory(TestFunction(grid, view, copy=False).values, owner)


def test_copy_false_wraps_read_only_values_without_a_copy():
    grid = Grid(2, 16, 0.5)
    packet = gaussian_packet(grid, [4.0, 4.0], 1.0, [0.0, 0.0])
    # another function's values, a row of a read-only batch or an owned array
    assert np.shares_memory(TestFunction(grid, packet.values, copy=False).values,
                            packet.values)
    owned = np.array(packet.values)
    owned.setflags(write=False)
    assert np.shares_memory(TestFunction(grid, owned, copy=False).values, owned)
    # random_positive_time_functions wraps the rows of positive_time_parts' read-only batch
    batch = random_positive_time_functions(grid, rng_from_seed(11), 3)
    base = batch[0].values.base
    assert base is not None and not base.flags.writeable
    assert all(f.values.base is base for f in batch)


def test_nonfinite_values_rejected(grid_1d):
    vals = np.ones(grid_1d.shape, dtype=complex)
    vals[0] = np.nan
    with pytest.raises(DomainError, match="finite"):
        TestFunction(grid_1d, vals)


@pytest.mark.bits
def test_rotations_have_order_four_in_3d():
    grid = Grid(3, 8, 0.5)
    f = random_complex_function(grid, 71)
    for plane in ((0, 1), (0, 2), (1, 2)):
        out = f
        for _ in range(4):
            out = apply_isometry(out, Isometry.rotation(*plane))
        assert np.array_equal(out.values, f.values)
