"""Sampling: reproducibility, statistical bands against analytic values."""

import numpy as np
import pytest

from schwingerlab import (DomainError, Mixture, QuasiFree, SpectralMeasure, cumulant,
                          envelope, estimate_fourth_cumulant, free_two_point,
                          moment_analytic, sample_stream, spectral_two_point)
from schwingerlab.experiments import ExperimentSpec, run_experiment, two_mass_mixture
from schwingerlab.fixtures import random_model_tree, rng_from_seed
from schwingerlab.lattice import Grid
from schwingerlab.montecarlo import _Stream, model_digest, pair_values, write_samples
from schwingerlab.propagator import propagator_rows

from oracles import covariance_kernel, kappa4_sigma_and_bias


@pytest.fixture(scope="module")
def grid():
    return Grid(2, 32, 0.25)


@pytest.fixture(scope="module")
def packet_m(grid):
    from schwingerlab import gaussian_packet
    return gaussian_packet(grid, [4.0, 4.0], 1.0)


@pytest.fixture(scope="module")
def free_values(grid, packet_m):
    leaf = QuasiFree(SpectralMeasure.delta(1.0))
    return pair_values(leaf, grid, packet_m, seed=41, count=4000)


@pytest.fixture(scope="module")
def mixture_values(grid, packet_m):
    return pair_values(two_mass_mixture(1.0, 4.0), grid, packet_m,
                       seed=43, count=6000)


# ---------------------------------------------------------------------------
# reproducibility
# ---------------------------------------------------------------------------

@pytest.mark.bits
def test_same_seed_and_index_reproduce_bit_exactly(grid):
    leaf = QuasiFree(SpectralMeasure.delta(1.0))
    (ca, a), (cb, b) = (list(sample_stream(leaf, grid, seed=7, count=4))[3]
                        for _ in range(2))
    assert np.array_equal(a, b)
    assert ca == cb


@pytest.mark.bits
def test_different_indices_differ(grid):
    leaf = QuasiFree(SpectralMeasure.delta(1.0))
    drawn = list(sample_stream(leaf, grid, seed=7, count=5))
    assert not np.array_equal(drawn[3][1], drawn[4][1])


@pytest.mark.bits
def test_stream_is_schedule_independent(grid, packet_m):
    mix = two_mass_mixture(1.0, 4.0)
    forward = list(sample_stream(mix, grid, seed=13, count=4))
    # index 2 drawn in isolation, keyed only by (seed, 2), gives the identical field
    _, [(component, alone)] = _per_leaf_atom_route(mix, grid, packet_m, 13, [2])
    assert forward[2][0] == component
    assert np.array_equal(forward[2][1], alone)


@pytest.mark.bits
@pytest.mark.parametrize("seed,index", [(0, 0), (2**63 + 5, 0), (2**64 + 7, 3),
                                        (-1, 2**64 - 1), (20240801, 99999)])
def test_rekeyed_generator_matches_fresh_stream(seed, index):
    g = Grid(2, 8, 1.0)
    three = QuasiFree(SpectralMeasure(((1.0, 0.2), (2.0, 0.3), (3.0, 0.5))))
    model = envelope([(0.5, three), (0.5, QuasiFree(SpectralMeasure.delta(4.0)))])
    stream = _Stream(model, g, seed)
    stream.draw(index ^ 1)
    stream.rng.standard_normal(7)  # leave the generator mid-buffer
    component, white = stream.draw(index)
    fresh = rng_from_seed(seed, index)
    assert component == (0 if fresh.random() < 0.5 else 1)
    assert np.array_equal(white, np.stack([fresh.standard_normal(g.shape)
                                           for _ in stream.amps[component]]))


@pytest.mark.parametrize("grid_args", [(1, 64, 0.5), (2, 32, 0.25), (3, 16, 0.5)],
                         ids=["1d", "2d", "3d"])
def test_pair_values_matches_field_route(grid_args):
    from schwingerlab import gaussian_packet
    g = Grid(*grid_args)
    f = gaussian_packet(g, [g.extent / 3.0] * g.d, 3.0 * g.spacing,
                        [2.0 * np.pi / g.extent] * g.d)
    rng = rng_from_seed(4242)
    for k in range(6):
        model = random_model_tree(rng, max_depth=3)
        xs = pair_values(model, g, f, seed=900 + k, count=12)
        want = np.array([g.cell * np.sum(values * f.values.real)
                         for _, values in sample_stream(model, g, 900 + k, 12)])
        assert np.max(np.abs(xs - want)) <= 1e-13 * np.max(np.abs(want))


def _per_leaf_atom_route(G, grid, f, seed, indices):
    """pair_values and (component, field) draws of the samples `indices`,
    built leaf atom by leaf atom from G.leaves(): one half-grid amplitude
    sqrt(w / (a^d (khat^2 + m^2))) and one filtered row per leaf atom, from
    unbatched rfftn/irfftn, the spectra of a field summed in atom order; each
    sample keyed by (seed, index) alone."""
    import bisect
    import functools
    import itertools
    from schwingerlab.lattice import half_spectrum
    leaves = G.leaves()
    half = grid.shape[:-1] + (grid.n_per_axis // 2 + 1,)
    symbol = half_spectrum(grid)[0].reshape(half)
    axes = tuple(range(grid.d))
    cum = list(itertools.accumulate(w for w, _ in leaves))
    amps = [[np.sqrt(w * (1.0 / (m2 + symbol)) / grid.cell) for m2, w in leaf.rho.atoms]
            for _, leaf in leaves]
    f_half = np.fft.rfftn(f.values.real)
    rows = [np.concatenate([grid.cell * np.fft.irfftn(amp * f_half, s=grid.shape, axes=axes).ravel()
                            for amp in leaf]) for leaf in amps]
    pairs, draws = [], []
    for index in indices:
        rng = rng_from_seed(seed, index)
        component = 0
        if len(cum) > 1:
            component = min(bisect.bisect_right(cum, rng.random() * cum[-1]), len(cum) - 1)
        white = rng.standard_normal((len(amps[component]),) + grid.shape)
        pairs.append(white.ravel() @ rows[component])
        spectrum = functools.reduce(np.add, [amp * np.fft.rfftn(noise)
                                             for amp, noise in zip(amps[component], white)])
        draws.append((component, np.fft.irfftn(spectrum, s=grid.shape, axes=axes)))
    return np.array(pairs), draws


# leaves sharing masses, and a zero-weight child
SHARED_MASSES = Mixture(((0.0, QuasiFree(SpectralMeasure.delta(9.0))),
                         (0.3, QuasiFree(SpectralMeasure(((1.0, 0.5), (4.0, 0.5))))),
                         (0.7, QuasiFree(SpectralMeasure(((4.0, 0.2), (9.0, 0.8)))))))


@pytest.mark.bits
@pytest.mark.parametrize("grid_args", [(1, 32, 0.5), (2, 16, 0.5), (3, 8, 0.5)],
                         ids=["1d", "2d", "3d"])
def test_atom_table_stream_matches_the_per_leaf_atom_route(grid_args):
    # the sampler batches each leaf's amplitude and filtered rows; every value
    # must keep the bits of the per-leaf-atom construction
    from schwingerlab import gaussian_packet
    g = Grid(*grid_args)
    f = gaussian_packet(g, [g.extent / 3.0] * g.d, 2.0 * g.spacing)
    rng = rng_from_seed(77)
    models = [two_mass_mixture(1.0, 4.0), random_model_tree(rng, max_depth=1)]
    models += [random_model_tree(rng, max_depth=depth) for depth in (2, 3, 3, 4)]
    models.append(SHARED_MASSES)
    for k, model in enumerate(models):
        pairs, draws = _per_leaf_atom_route(model, g, f, 300 + k, range(24))
        assert np.array_equal(pair_values(model, g, f, 300 + k, 24), pairs)
        drawn = list(sample_stream(model, g, 300 + k, 6))
        assert all(c == want_c and np.array_equal(values, want)
                   for (c, values), (want_c, want) in zip(drawn, draws))


@pytest.mark.bits
@pytest.mark.parametrize("grid_args", [(1, 64, 0.5), (2, 32, 0.25), (3, 16, 0.5)],
                         ids=["1d", "2d", "3d"])
def test_sampler_amplitudes_and_grams_read_one_covariance(grid_args):
    # per leaf, the sampled variance of each mode is the Grams' symbol P_l
    g = Grid(*grid_args)
    rng = rng_from_seed(83)
    models = [two_mass_mixture(1.0, 4.0), SHARED_MASSES]
    models += [random_model_tree(rng, max_depth=3) for _ in range(6)]
    for model in models:
        rows = propagator_rows(g, *model._atom_table[1:])
        amps = _Stream(model, g, seed=1).amps
        assert len(amps) == len(rows)
        for amp, row in zip(amps, rows):
            variance = np.sum(amp * amp, axis=0).ravel() * g.cell
            assert np.max(np.abs(variance - row) / row) <= 1e-15


def test_pair_values_rejects_function_on_another_grid(grid):
    from schwingerlab import gaussian_packet
    other = gaussian_packet(Grid(2, 16, 0.5), [4.0, 4.0], 1.0)
    with pytest.raises(DomainError, match="different grid"):
        pair_values(QuasiFree(SpectralMeasure.delta(1.0)), grid, other, seed=1, count=3)


def test_pair_values_on_amplitudes_that_leave_float64_raise(grid):
    # the light atom's amplitude sqrt(1e306 / (1e-6 a^d)) is past the largest float; a
    # RuntimeWarning would be raised here as an error, since the suite turns warnings into errors
    from schwingerlab import gaussian_packet
    heavy = envelope([(0.5, QuasiFree(SpectralMeasure(((1e-6, 1e306),)))),
                      (0.5, QuasiFree(SpectralMeasure.delta(4.0)))])
    small = Grid(2, 16, 0.5)
    f = gaussian_packet(small, [4.0, 4.0], 1.0)
    with pytest.raises(DomainError, match="^sampler amplitudes leave float64"):
        pair_values(heavy, small, f, seed=0, count=3)
    with pytest.raises(DomainError, match="^sampler amplitudes leave float64"):
        sample_stream(heavy, small, 0, 3)   # on the call, before the first sample


# ---------------------------------------------------------------------------
# statistics of the free field
# ---------------------------------------------------------------------------

def test_sample_mean_within_band(free_values, grid, packet_m):
    n = free_values.size
    s2 = free_two_point(packet_m, packet_m, 1.0).real
    stderr = np.sqrt(s2 / n)
    assert abs(free_values.mean()) <= 3 * stderr


def test_sample_variance_within_band(free_values, grid, packet_m):
    n = free_values.size
    s2 = free_two_point(packet_m, packet_m, 1.0).real
    # var of x^2 for a Gaussian is 2 s2^2
    stderr = np.sqrt(2.0 * s2 ** 2 / n)
    assert abs(np.mean(free_values ** 2) - s2) <= 3 * stderr


def test_independent_seeds_are_uncorrelated(grid, packet_m):
    leaf = QuasiFree(SpectralMeasure.delta(1.0))
    xs = pair_values(leaf, grid, packet_m, seed=101, count=2000)
    ys = pair_values(leaf, grid, packet_m, seed=202, count=2000)
    corr = np.corrcoef(xs, ys)[0, 1]
    assert abs(corr) <= 3.0 / np.sqrt(xs.size)


def test_generalized_free_field_covariance(grid, packet_m):
    rho = SpectralMeasure(((1.0, 0.5), (4.0, 0.5)))
    leaf = QuasiFree(rho)
    xs = pair_values(leaf, grid, packet_m, seed=51, count=4000)
    want = spectral_two_point(packet_m, packet_m, rho).real
    stderr = np.sqrt(2.0 * want ** 2 / xs.size)
    assert abs(np.mean(xs ** 2) - want) <= 3 * stderr


# ---------------------------------------------------------------------------
# mixtures
# ---------------------------------------------------------------------------

def test_component_frequencies_match_weights(grid):
    mix = two_mass_mixture(1.0, 4.0)
    counts = np.zeros(2)
    n = 600
    for component, _ in sample_stream(mix, grid, seed=15, count=n):
        counts[component] += 1
    for w, c in zip((0.5, 0.5), counts):
        sigma = np.sqrt(n * w * (1 - w))
        assert abs(c - n * w) <= 3 * sigma


def test_mixture_fourth_cumulant_band(grid, packet_m, mixture_values):
    mix = two_mass_mixture(1.0, 4.0)
    want = cumulant(mix, [packet_m] * 4).real
    est, err = estimate_fourth_cumulant(mixture_values)
    assert abs(est - want) <= 3 * err


def test_mixture_vs_gaussianized_two_point_agrees(grid, packet_m, mixture_values):
    from schwingerlab import gaussianize
    mix = two_mass_mixture(1.0, 4.0)
    flat = gaussianize(mix)
    ys = pair_values(flat, grid, packet_m, seed=47, count=6000)
    # same second moment within bands
    s2 = moment_analytic(mix, [packet_m] * 2).real
    for xs in (mixture_values, ys):
        stderr = np.sqrt(np.var(xs ** 2) / xs.size)
        assert abs(np.mean(xs ** 2) - s2) <= 4 * stderr


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def _jackknife_mean(values):
    """Sample mean and its delete-one jackknife error."""
    n = values.size
    loo = (values.sum() - values) / (n - 1)
    return values.mean(), np.sqrt((n - 1) / n * np.sum((loo - loo.mean()) ** 2))


def test_pair_values_moment_n2_band(grid, packet_m):
    leaf = QuasiFree(SpectralMeasure.delta(1.0))
    est, err = _jackknife_mean(pair_values(leaf, grid, packet_m, seed=61, count=3000) ** 2)
    want = free_two_point(packet_m, packet_m, 1.0).real
    assert abs(est - want) <= 3 * err


def test_pair_values_moment_n3_consistent_with_zero(grid, packet_m):
    leaf = QuasiFree(SpectralMeasure.delta(1.0))
    est, err = _jackknife_mean(pair_values(leaf, grid, packet_m, seed=63, count=3000) ** 3)
    assert abs(est) <= 3 * err


def test_pair_values_moment_n4_mixture_band(grid, packet_m):
    mix = two_mass_mixture(1.0, 4.0)
    est, err = _jackknife_mean(pair_values(mix, grid, packet_m, seed=65, count=4000) ** 4)
    want = moment_analytic(mix, [packet_m] * 4).real
    assert abs(est - want) <= 3 * err


def test_stderr_shrinks_like_inverse_sqrt(mixture_values):
    counts = [100, 400, 1600, 6000]
    errs = [_jackknife_mean(mixture_values[:c])[1] for c in counts]
    slope = np.polyfit(np.log(counts), np.log(errs), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.1)


# ---------------------------------------------------------------------------
# dumps
# ---------------------------------------------------------------------------

@pytest.mark.bits
def test_sample_dump_holds_the_stream_bit_for_bit(tmp_path, grid):
    mix = two_mass_mixture(1.0, 4.0)
    path = tmp_path / "samples.txt"
    write_samples(path, mix, grid, seed=19, count=3)
    lines = path.read_text(encoding="ascii").splitlines()
    assert lines[0] == "fieldsamples v1"
    assert dict(tok.split("=", 1) for tok in lines[1].split()) == {
        "model_digest": model_digest(mix, grid), "d": "2", "n_per_axis": "32",
        "spacing": "0.25", "seed": "19", "count": "3"}
    assert len(lines) == 2 + 2 * 3
    for i, (component, values) in enumerate(sample_stream(mix, grid, seed=19, count=3)):
        assert lines[2 + 2 * i] == f"sample index={i} component={component}"
        row = np.array([float(token) for token in lines[3 + 2 * i].split()])
        assert np.array_equal(row, values.ravel())


@pytest.mark.bits
@pytest.mark.parametrize("grid_args", [(1, 16, 0.5), (2, 16, 0.5), (3, 8, 0.5)])
def test_dump_numbers_read_back_to_the_stream_fields_bit_for_bit(tmp_path, grid_args):
    # atom weights over twelve decades give fields whose values span many exponents
    g = Grid(*grid_args)
    wide = envelope([(0.25, QuasiFree(SpectralMeasure(((1.0, 1e-6), (4.0, 1e6))))),
                     (0.75, QuasiFree(SpectralMeasure(((0.5, 1e-3), (9.0, 1e3)))))])
    path = tmp_path / "samples.txt"
    write_samples(path, wide, g, seed=23, count=4)
    lines = path.read_text(encoding="ascii").split("\n")
    d, n, a = grid_args
    assert lines[:2] == ["fieldsamples v1", f"model_digest={model_digest(wide, g)} d={d} "
                         f"n_per_axis={n} spacing={a!r} seed=23 count=4"]
    assert len(lines) == 2 + 2 * 4 + 1 and lines[-1] == ""
    for i, (component, values) in enumerate(sample_stream(wide, g, seed=23, count=4)):
        assert lines[2 + 2 * i] == f"sample index={i} component={component}"
        tokens = lines[3 + 2 * i].split(" ")
        assert len(tokens) == g.volume
        row = np.array([float(token) for token in tokens])
        assert np.array_equal(row.view(np.int64), values.ravel().view(np.int64))


def test_sampler_reproduces_the_covariance_kernel():
    # volume-averaged E[phi(x) phi(x+d)] against the analytic kernel
    small = Grid(2, 16, 0.5)
    m2 = 1.0
    ker = covariance_kernel(small, m2)
    acc = {d: 0.0 for d in [(0, 0), (1, 0), (0, 2), (3, 3)]}
    count = 400
    for _, values in sample_stream(QuasiFree(SpectralMeasure.delta(m2)), small,
                                   seed=111, count=count):
        for d in acc:
            shifted = np.roll(values, shift=d, axis=(0, 1))
            acc[d] += float(np.mean(values * shifted))
    for d, total in acc.items():
        est = total / count
        want = ker[d]
        assert est == pytest.approx(want, rel=0.15), d


@pytest.mark.parametrize("k", [-240, -40, -1, 3, 60, 240])
def test_fourth_cumulant_scales_exactly_by_powers_of_two(k):
    x = rng_from_seed(61).standard_normal(500)
    est, err = estimate_fourth_cumulant(x)
    assert estimate_fourth_cumulant(x * 2.0 ** k) == (est * 2.0 ** (4 * k), err * 2.0 ** (4 * k))


@pytest.mark.parametrize("masses_sq", [[1e150, 1e150], [1e150, 1e300]])
def test_two_mass_experiment_with_tiny_pair_values_keeps_its_error_bar(masses_sq):
    # pair values near 1e-75 put x^4 near 1e-300, where the jackknife's squares underflowed
    spec = ExperimentSpec.from_dict({
        "experiment_id": "two_mass_fourth_cumulant",
        "grid": {"d": 2, "n_per_axis": 16, "spacing": 0.5}, "seed": 3,
        "params": {"masses_sq": masses_sq, "packet": {"center": [4.0, 4.0], "width": 1.0},
                   "mc_samples": 2000}})
    report = run_experiment(spec)
    assert report.values["monte_carlo_stderr"] > 0.0
    assert report.passed and report.values["monte_carlo_sigmas"] <= 3.0


@pytest.mark.parametrize("m2_sq", [4.0, 1e3])
def test_kappa4_spread_is_the_delta_method_sigma(m2_sq):
    # seeds 2300..2699 at N = 500, fixed before any run: sd(est) / sigma read 0.934 and 0.943
    # on seeds 1000..1399, with bootstrap 90% ranges 0.865-0.997 and 0.875-1.001
    from schwingerlab import gaussian_packet
    grid = Grid(1, 16, 0.5)
    f = gaussian_packet(grid, [4.0], 1.0)
    model = two_mass_mixture(1.0, m2_sq)
    est = [estimate_fourth_cumulant(pair_values(model, grid, f, seed, 500))[0]
           for seed in range(2300, 2700)]
    sigma, _ = kappa4_sigma_and_bias(model, f, 500)
    assert 0.8 <= np.std(est, ddof=1) / sigma <= 1.2
