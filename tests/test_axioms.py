"""Axiom checkers: passing models, injected defects, determinism."""

import json

import numpy as np
import pytest

from schwingerlab import (CheckReport, DomainError, Isometry, Mixture,
                          QuasiFree, SpectralMeasure,
                          SuiteConfig, apply_isometry, check_cluster_defect,
                          check_euclidean_invariance,
                          check_normalization_neutrality,
                          check_reflection_positivity,
                          check_stochastic_positivity, run_axiom_suite,
                          site_indicator, summary_lines)
from schwingerlab.axioms import _psd_witness, point_group
from schwingerlab.errors import SchemaError
from schwingerlab.experiments import two_mass_mixture
from schwingerlab.fixtures import (random_model_tree,
                                   random_positive_time_functions,
                                   random_real_functions, rng_from_seed)
from schwingerlab.functional import (ROUNDOFF_FLOOR, default_z_grid, envelope,
                                     quasi_free_defect, validate_model)
from schwingerlab.lattice import Grid, TestFunction, gaussian_packet
from schwingerlab.propagator import propagator_rows, spectral_two_point, two_point_grams

from oracles import (SIGNED_CONTROLS, covariance_kernel, fixture_packet,
                     full_grid_quasi_free_defect, probe_quasi_free, reflect_momentum,
                     slab_leaf_witnesses, time_slabs)
from test_functional import MODEL_FAMILY, RAW_TREES, _eight_leaf_trees, _pool_trees
from test_lattice import _BIT_GRIDS, _BIT_IDS, _bits_equal, spectrum


def evaluate_loop(G, fs, partners):
    """M[i, j] = G.evaluate_many([f_i - p_j])[0], one evaluation per entry: the
    difference matrix of the evaluate-only fakes, and the oracle of the
    leaf-Gram route."""
    return np.array([[G.evaluate_many([f - p])[0] for p in partners] for f in fs],
                    dtype=np.complex128)


class SignFlipped:
    """exp(+S2/2): grows instead of decaying, not a characteristic functional."""

    difference_matrix = evaluate_loop

    def __init__(self, m2):
        self.m2 = m2

    def evaluate_many(self, fs, z=1.0):
        return [self.evaluate(f, z) for f in fs]

    def evaluate(self, f, z=1.0):
        from schwingerlab import free_two_point
        zz = complex(z)
        return complex(np.exp(+0.5 * zz * zz * free_two_point(f, f, self.m2)))


class Anisotropic:
    """Gaussian over a symbol with per-axis weights: breaks rotations."""

    difference_matrix = evaluate_loop

    def __init__(self, m2, weights):
        self.m2 = m2
        self.weights = weights

    def evaluate_many(self, fs, z=1.0):
        return [self.evaluate(f, z) for f in fs]

    def evaluate(self, f, z=1.0):
        g = f.grid
        k1 = 2.0 * np.pi * np.fft.fftfreq(g.n_per_axis, d=g.spacing)
        s1 = (2.0 / g.spacing) ** 2 * np.sin(k1 * g.spacing / 2.0) ** 2
        sym = self.weights[0] * s1[:, None] + self.weights[1] * s1[None, :]
        hat = spectrum(f)
        s2 = np.sum(reflect_momentum(hat) * hat / (sym + self.m2)) / g.extent ** g.d
        zz = complex(z)
        return complex(np.exp(-0.5 * zz * zz * s2))


@pytest.fixture
def rp_set(grid_2d):
    rng = rng_from_seed(99)
    return random_positive_time_functions(grid_2d, rng, 8)


@pytest.fixture
def real_set(grid_2d):
    rng = rng_from_seed(101)
    return random_real_functions(grid_2d, rng, 8)


# ---------------------------------------------------------------------------
# normalization / neutrality
# ---------------------------------------------------------------------------

def test_normalization_passes_on_valid_models(real_set, free_leaf, mixture_14):
    for model in (free_leaf, mixture_14):
        rep = check_normalization_neutrality(model, real_set)
        assert rep.passed
        assert rep.witness <= 1e-15


def test_normalization_rejects_an_empty_set(free_leaf):
    with pytest.raises(DomainError, match="at least one"):
        check_normalization_neutrality(free_leaf, [])


def test_normalization_fails_on_corrupted_weights(real_set, free_leaf):
    broken = Mixture(((0.5, free_leaf), (0.4, free_leaf)))
    rep = check_normalization_neutrality(broken, real_set)
    assert not rep.passed
    assert rep.witness == pytest.approx(0.1, rel=1e-10)


# ---------------------------------------------------------------------------
# reflection positivity
# ---------------------------------------------------------------------------

def test_single_function_reflection_value_is_nonnegative(grid_2d, free_leaf):
    rng = rng_from_seed(103)
    f = random_positive_time_functions(grid_2d, rng, 1)[0]
    val = free_leaf.evaluate_many([f - apply_isometry(f, Isometry.time_reflection())])[0]
    assert abs(val.imag) <= 1e-14
    assert val.real >= 0


def test_reflection_positivity_free_field(rp_set, free_leaf):
    rep = check_reflection_positivity(free_leaf, rp_set)
    assert rep.passed
    assert rep.details["hermiticity_defect"] <= 1e-14


def test_reflection_positivity_mixture(rp_set, mixture_14):
    rep = check_reflection_positivity(mixture_14, rp_set)
    assert rep.passed


def test_heavy_leaf_whose_matrix_underflows_has_witness_zero(rp_set):
    # S2(f_i - R f_j) is in the thousands, so every entry exp(-S2/2) is 0.0
    heavy = QuasiFree(SpectralMeasure(((1.0, 1e4),)))
    rep = check_reflection_positivity(heavy, rp_set)
    assert rep.details["trace"] == 0.0
    assert rep.witness == 0.0 and rep.passed


def test_mixture_witness_dominated_by_children(rp_set):
    # convexity: the mixture's PSD witness is no worse than the worst child
    g1 = QuasiFree(SpectralMeasure.delta(1.0))
    g2 = QuasiFree(SpectralMeasure.delta(4.0))
    mix = two_mass_mixture(1.0, 4.0)
    w1 = check_reflection_positivity(g1, rp_set).witness
    w2 = check_reflection_positivity(g2, rp_set).witness
    wm = check_reflection_positivity(mix, rp_set).witness
    assert wm >= min(w1, w2) - 1e-12


def test_reflection_positivity_names_offending_function(grid_2d, free_leaf, rp_set):
    bad = list(rp_set)
    bad[3] = random_real_functions(grid_2d, rng_from_seed(105), 1)[0]  # unrestricted
    with pytest.raises(DomainError, match="function 3"):
        check_reflection_positivity(free_leaf, bad)


def test_gram_size_bounds(free_leaf, rp_set):
    with pytest.raises(DomainError, match="2..12"):
        check_reflection_positivity(free_leaf, rp_set[:1])


def test_reflection_positivity_rejects_complex_functions(free_leaf, rp_set):
    bad = list(rp_set)
    bad[2] = 1j * bad[2]
    with pytest.raises(DomainError, match="function 2 is not real"):
        check_reflection_positivity(free_leaf, bad)


def _shared_mass_tree():
    a = QuasiFree(SpectralMeasure(((1.0, 0.5), (4.0, 0.5))))
    b = QuasiFree(SpectralMeasure(((4.0, 0.3), (9.0, 0.7))))
    c = QuasiFree(SpectralMeasure.delta(1.0))
    return Mixture(((0.5, Mixture(((0.25, a), (0.75, b)))), (0.5, Mixture(((0.6, c), (0.4, a))))))


def _tree_of_depth(rng, depth):
    while (tree := random_model_tree(rng, max_depth=depth)).depth() < depth:
        pass
    return tree


def _oracle_trees():
    rng = rng_from_seed(211)
    leaf = QuasiFree(SpectralMeasure.delta(1.0))
    heavy = QuasiFree(SpectralMeasure(((2.0, 0.5), (6.0, 0.5))))
    return [("depth3", _tree_of_depth(rng, 3)),
            ("depth3_b", _tree_of_depth(rng, 3)),
            ("depth4", _tree_of_depth(rng, 4)),
            ("depth4_b", _tree_of_depth(rng, 4)),
            ("shared_masses", _shared_mass_tree()),
            ("weights_1_4", Mixture(((0.7, leaf), (0.7, heavy)))),
            ("leaf", leaf)]


ORACLE_TREES = _oracle_trees()


@pytest.mark.parametrize("grid_args", [(1, 64, 0.5), (2, 32, 0.25), (3, 16, 0.5)],
                         ids=["1d", "2d", "3d"])
@pytest.mark.parametrize("tree", [tree for _, tree in ORACLE_TREES],
                         ids=[name for name, _ in ORACLE_TREES])
def test_difference_matrix_matches_the_evaluate_loop(grid_args, tree):
    grid = Grid(*grid_args)
    rng = rng_from_seed(223)
    rp = random_positive_time_functions(grid, rng, 6)
    sp = random_real_functions(grid, rng, 6)
    reflected = [apply_isometry(f, Isometry.time_reflection()) for f in rp]
    for fs, partners in ((rp, reflected), (sp, sp)):
        got = tree.difference_matrix(fs, partners)
        want = evaluate_loop(tree, fs, partners)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))
        assert abs(_psd_witness(got, {}) - _psd_witness(want, {})) <= 1e-13


@pytest.mark.bits
@pytest.mark.parametrize("grid_args", _BIT_GRIDS, ids=_BIT_IDS)
def test_difference_matrix_is_the_written_out_running_sum(grid_args):
    """M[i, j] = sum_l w_l exp(-1/2 sq_l[i, j]), sq_l[i, j] = S2_l(f_i - p_j, f_i - p_j)
    expanded over the leaf Grams of fs and the partners not among them, summed by np.cumsum
    in leaf order."""
    grid = Grid(*grid_args)
    fs = random_real_functions(grid, rng_from_seed(231), 5)
    partners = fs[3:] + random_real_functions(grid, rng_from_seed(232), 3)
    i, j = np.arange(5)[:, None], np.arange(3, 8)[None, :]   # partners in fs + partners[2:]
    for tree in RAW_TREES + _eight_leaf_trees():
        weights, masses, atoms = tree._atom_table
        grams = two_point_grams(fs + partners[2:], masses, atoms)
        sq = grams[:, i, i] + grams[:, j, j] - grams[:, i, j] - grams[:, j, i]
        want = np.cumsum(weights * np.exp(-0.5 * np.moveaxis(sq, 0, -1)), axis=-1)[..., -1]
        assert np.array_equal(tree.difference_matrix(fs, partners), want)


def test_difference_matrix_rejects_functions_on_two_grids(free_leaf, real_set):
    other = random_real_functions(Grid(2, 32, 0.5), rng_from_seed(7), 1)[0]
    with pytest.raises(DomainError, match="one grid"):
        free_leaf.difference_matrix(real_set[:2], [real_set[0], other])


def _nested_evaluate(G, f, z):
    """Evaluation as a tree walk with one kernel call per leaf."""
    if isinstance(G, QuasiFree):
        zz = complex(z)
        return complex(np.exp(-0.5 * zz * zz * spectral_two_point(f, f, G.rho)))
    return complex(sum(w * _nested_evaluate(child, f, z) for w, child in G.children))


@pytest.mark.parametrize("grid_args", [(1, 64, 0.5), (2, 32, 0.25), (3, 16, 0.5)],
                         ids=["1d", "2d", "3d"])
def test_evaluate_is_within_4_ulp_of_the_nested_walk(grid_args):
    # the flat sum adds the leaves in another order than the walk: the bound
    # is 4 eps times the sum of the absolute leaf terms
    grid = Grid(*grid_args)
    rng = rng_from_seed(227)
    trees = [tree for _, tree in ORACLE_TREES]
    trees += [_tree_of_depth(rng, d) for d in (3, 3, 4, 4)]
    fs = random_real_functions(grid, rng, 2)
    fs.append(gaussian_packet(grid, [grid.extent / 3] * grid.d, 2 * grid.spacing,
                              [2 * np.pi / grid.extent] * grid.d))
    eps = np.finfo(float).eps
    for tree in trees:
        for f in fs:
            for z in (1.0, 0.3 + 2j, -1.7j):
                terms = sum(w * abs(_nested_evaluate(leaf, f, z)) for w, leaf in tree.leaves())
                got = tree.evaluate_many([f], z)[0]
                assert abs(got - _nested_evaluate(tree, f, z)) <= 4 * eps * terms


@pytest.mark.bits
@pytest.mark.parametrize("grid_args", [(1, 64, 0.5), (2, 32, 0.25), (3, 16, 0.5)],
                         ids=["1d", "2d", "3d"])
def test_evaluate_many_is_bit_identical_to_evaluate(grid_args):
    grid = Grid(*grid_args)
    rng = rng_from_seed(229)
    trees = [_tree_of_depth(rng, d) for d in (3, 3, 4, 4)]
    values = [f.values for f in random_real_functions(grid, rng, 48)]
    values[5] = values[5] * (0.4 - 1.3j)
    zs = np.array(default_z_grid() + [1.0, 0.3 + 2j, -1.7j])
    for tree in trees:
        for z in (1.0, 0.3 + 2j):
            # the oracle: one one-function call per function, each on an uncached copy
            want = [tree.evaluate_many([TestFunction(grid, v)], z)[0] for v in values]
            for size in (1, 2, 7, 48):
                fs = [TestFunction(grid, v) for v in values]
                got = [value for i in range(0, len(fs), size)
                       for value in tree.evaluate_many(fs[i:i + size], z)]
                assert got == want
        # a 1-D z: column k has the bits of the scalar call at z[k]
        fs = [TestFunction(grid, v) for v in values[4:7]]
        got = tree.evaluate_many(fs, zs)
        assert got.shape == (len(fs), len(zs))
        for k, z in enumerate(zs):
            assert got[:, k].tolist() == tree.evaluate_many(fs, z)


def test_evaluate_many_of_no_functions_is_empty(free_leaf, mixture_14):
    for model in (free_leaf, mixture_14):
        assert model.evaluate_many([]) == []
        assert model.evaluate_many([], [1.0, 2.0]).shape == (0, 2)


@pytest.mark.bits
def test_evaluate_many_at_no_z_is_empty_and_refuses_a_2d_z(free_leaf, mixture_14, real_set):
    for model in (free_leaf, mixture_14):
        for fs in ([], real_set[:3]):
            values = model.evaluate_many(fs, np.array([]))
            assert values.shape == (len(fs), 0) and values.dtype == np.complex128
        for z in (np.ones((2, 2)), [[1.0]]):
            with pytest.raises(DomainError, match=r"^z must be a scalar or a 1-D array"):
                model.evaluate_many(real_set[:1], z)
        zs = [1.0, 0.5 - 2j, 3.0]
        values = model.evaluate_many(real_set[:3], zs)
        assert all(_bits_equal(values[:, k].copy(), model.evaluate_many(real_set[:3], z))
                   for k, z in enumerate(zs))


def test_leaf_two_point_of_no_pairs_is_empty(free_leaf, mixture_14):
    for model in (free_leaf, mixture_14):
        assert model.leaf_two_point([], []).shape == (0, len(model.leaves()))


def test_evaluate_many_rejects_functions_on_two_grids(free_leaf, real_set):
    other = random_real_functions(Grid(2, 32, 0.5), rng_from_seed(7), 1)[0]
    with pytest.raises(DomainError, match="one grid"):
        free_leaf.evaluate_many([real_set[0], other])


# The signed-measure controls (Pauli-Villars ghosts): valid Gaussians that are not
# reflection positive, seen by the zero-momentum time slabs

@pytest.mark.parametrize("grid_args", _BIT_GRIDS, ids=_BIT_IDS)
def test_signed_controls_pass_every_check_but_reflection(grid_args):
    # the suite's sets at its default seed: a valid Gaussian law, invariant and clustering
    grid = Grid(*grid_args)
    rng = rng_from_seed(7)
    random_real_functions(grid, rng, 4)
    random_positive_time_functions(grid, rng, 8)
    real = random_real_functions(grid, rng, 11)
    probe = site_indicator(grid, (grid.n_per_axis // 4,) + (grid.n_per_axis // 2,) * (grid.d - 1))
    seps = tuple(range(4, grid.n_per_axis // 4 + 1, 4)) or (grid.n_per_axis // 4,)
    for control in SIGNED_CONTROLS:
        _, masses, atoms = control._atom_table
        assert atoms.min() < 0 and propagator_rows(grid, masses, atoms).min() > 0
        assert check_stochastic_positivity(control, real[:8]).passed
        assert check_euclidean_invariance(control, real[8:], point_group(grid)).passed
        assert check_cluster_defect(control, probe, probe, seps)[0].passed


@pytest.mark.parametrize("grid_args", _BIT_GRIDS, ids=_BIT_IDS)
def test_slab_leaf_witness_is_negative_on_the_signed_controls(grid_args):
    grid = Grid(*grid_args)
    slabs = time_slabs(grid)
    reflected = [apply_isometry(f, Isometry.time_reflection()) for f in slabs]
    pairs = [(i, j) for i in range(len(slabs)) for j in range(len(slabs))]
    for control in SIGNED_CONTROLS:
        assert slab_leaf_witnesses(control, grid)[0] < -1e-4
        # the oracle's Hankel matrix is S2(f_i, theta f_j) / (a^(2d) N^(d-1))
        s2 = control.leaf_two_point([slabs[i] for i, _ in pairs],
                                    [reflected[j] for _, j in pairs])[:, 0].real
        n, t = grid.n_per_axis, np.arange(1, len(slabs) + 1)
        _, masses, atoms = control._atom_table
        kernel = atoms[0] @ [covariance_kernel(grid, m2).reshape(n, -1).sum(axis=1)
                             for m2 in masses]
        want = grid.cell ** 2 * n ** (grid.d - 1) * kernel[(t[:, None] + t + 1) % n].ravel()
        assert np.max(np.abs(s2 - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("grid_args", _BIT_GRIDS, ids=_BIT_IDS)
def test_slab_leaf_witness_is_roundoff_on_every_pool_leaf(grid_args):
    # a positive measure makes the slab matrix PSD of low rank: -29 eps at worst in 1-D
    grid = Grid(*grid_args)
    eps = np.finfo(float).eps
    for tree in _pool_trees():
        assert slab_leaf_witnesses(tree, grid).min() >= -64 * eps


@pytest.mark.parametrize("grid_args", [(1, 64, 0.5), (2, 16, 0.5), (2, 32, 0.25), (3, 16, 0.5)],
                         ids=["1d", "2d_16", "2d_32", "3d"])
def test_reflection_check_on_scaled_slabs_fails_the_signed_controls(grid_args):
    # on an 8-site axis the 3 slabs do not expose the ghost at any scale: the leaf witness
    # does (above), the difference matrix Gamma(f_i - theta f_j) does not
    grid = Grid(*grid_args)
    slabs = time_slabs(grid, 0.3)
    for control in SIGNED_CONTROLS:
        rep = check_reflection_positivity(control, slabs)
        assert not rep.passed and rep.witness < rep.tolerance
    positive = [QuasiFree(SpectralMeasure.delta(1.0)),
                QuasiFree(SpectralMeasure(((1.0, 1.0), (4.0, 1.0))))] + _pool_trees()[:4]
    for model in positive:
        assert check_reflection_positivity(model, slabs).passed


# ---------------------------------------------------------------------------
# stochastic positivity
# ---------------------------------------------------------------------------

def test_stochastic_positivity_passes(real_set, free_leaf, mixture_14):
    for model in (free_leaf, mixture_14):
        rep = check_stochastic_positivity(model, real_set)
        assert rep.passed


def test_stochastic_positivity_rejects_sign_flipped_functional(real_set):
    rep = check_stochastic_positivity(SignFlipped(1.0), real_set)
    assert not rep.passed


def test_stochastic_positivity_rejects_complex_functions(free_leaf, real_set):
    bad = list(real_set)
    bad[5] = 1j * bad[5]
    with pytest.raises(DomainError, match="function 5 is not real"):
        check_stochastic_positivity(free_leaf, bad)


# ---------------------------------------------------------------------------
# Euclidean invariance
# ---------------------------------------------------------------------------

def test_invariance_on_valid_models(grid_2d, real_set, free_leaf, mixture_14):
    isos = point_group(grid_2d)
    for model in (free_leaf, mixture_14):
        rep = check_euclidean_invariance(model, real_set[:3], isos)
        assert rep.passed
        assert rep.witness <= 1e-13


def test_invariance_fails_on_anisotropic_propagator(grid_2d, real_set):
    model = Anisotropic(1.0, (1.0, 1.7))
    rep = check_euclidean_invariance(model, real_set[:3],
                                     [Isometry.rotation(0, 1)])
    assert not rep.passed
    assert rep.details["worst_kind"] == "rotation"


@pytest.mark.parametrize("n_functions,n_isometries", [(0, 0), (0, 1), (2, 0)])
def test_invariance_rejects_empty_sets(grid_2d, real_set, free_leaf,
                                       n_functions, n_isometries):
    isos = point_group(grid_2d)[:n_isometries]
    with pytest.raises(DomainError, match="at least one"):
        check_euclidean_invariance(free_leaf, real_set[:n_functions], isos)


def test_translations_alone_pass_even_for_anisotropic(grid_2d, real_set):
    model = Anisotropic(1.0, (1.0, 1.7))
    rep = check_euclidean_invariance(
        model, real_set[:2], [Isometry.translation([5, 2])])
    assert rep.passed


# ---------------------------------------------------------------------------
# cluster behaviour
# ---------------------------------------------------------------------------

@pytest.fixture
def cluster_grid():
    return Grid(2, 64, 1.0)


@pytest.fixture
def cluster_probes(cluster_grid):
    base = (16, 32)
    return site_indicator(cluster_grid, base), site_indicator(cluster_grid, base)


def test_single_mass_model_clusters(cluster_grid, cluster_probes):
    f, g = cluster_probes
    leaf = QuasiFree(SpectralMeasure.delta(1.0))
    rep, curve = check_cluster_defect(leaf, f, g, [4, 8, 12, 16], tolerance=1e-6)
    assert rep.passed
    mags = [abs(d) for _, d in curve]
    assert all(b < a for a, b in zip(mags, mags[1:]))  # exponential decay
    assert mags[-1] <= 1e-6


def test_two_mass_mixture_does_not_cluster(cluster_grid, cluster_probes):
    f, g = cluster_probes
    mix = two_mass_mixture(1.0, 4.0)
    rep, curve = check_cluster_defect(mix, f, g, [4, 8, 12, 16], tolerance=1e-6)
    assert rep.passed
    d_inf = complex(*rep.details["delta_infinity"])
    # quarter-product prediction from the two leaves
    g1 = QuasiFree(SpectralMeasure.delta(1.0))
    g2 = QuasiFree(SpectralMeasure.delta(4.0))
    want = 0.25 * (g1.evaluate_many([f])[0] - g2.evaluate_many([f])[0]) \
        * (g1.evaluate_many([g])[0] - g2.evaluate_many([g])[0])
    assert d_inf == pytest.approx(want, rel=1e-10)
    assert abs(d_inf) > 1e-4
    # the curve approaches Delta_inf, not zero
    assert abs(curve[-1][1]) > 1e-4


def test_one_atom_mixture_still_clusters(cluster_grid, cluster_probes):
    f, g = cluster_probes
    leaf = QuasiFree(SpectralMeasure.delta(1.0))
    mix = Mixture(((0.5, leaf), (0.5, leaf)))
    rep, _ = check_cluster_defect(mix, f, g, [4, 8, 12, 16], tolerance=1e-6)
    assert rep.details["mode"] == "defect"
    assert rep.details["delta_infinity"] == [0.0, 0.0]
    assert rep.passed


@pytest.mark.parametrize("tree", [tree for _, tree in ORACLE_TREES],
                         ids=[name for name, _ in ORACLE_TREES])
def test_cluster_leaf_terms_match_the_per_leaf_walk(cluster_grid, tree):
    # the oracle: Delta_inf and the tail budget from the per-leaf kernel sums
    f = site_indicator(cluster_grid, (16, 32))
    g = gaussian_packet(cluster_grid, [20.0, 30.0], 3.0, [2 * np.pi / 64, 0.0])
    g = TestFunction(cluster_grid, g.values.real)
    seps = [4, 8, 16]
    rep, curve = check_cluster_defect(tree, f, g, seps)
    gamma_f, gamma_g = tree.evaluate_many([f])[0], tree.evaluate_many([g])[0]
    leaves = tree.leaves()
    delta_inf = sum(w * _nested_evaluate(leaf, f, 1.0) * _nested_evaluate(leaf, g, 1.0)
                    for w, leaf in leaves) - gamma_f * gamma_g
    last = apply_isometry(g, Isometry.translation((16, 0)))
    budget = 2.0 * sum(abs(w) * abs(spectral_two_point(f, last, leaf.rho))
                       for w, leaf in leaves)
    assert rep.details["delta_infinity"] == [delta_inf.real, delta_inf.imag]
    assert rep.details["tail_budget"] == budget
    for (vec, delta), sep in zip(curve, seps):
        shifted = apply_isometry(g, Isometry.translation((sep, 0)))
        assert delta == tree.evaluate_many([f + shifted])[0] - gamma_f * gamma_g


@pytest.mark.parametrize("model", [
    QuasiFree(SpectralMeasure.delta(1.0)),
    QuasiFree(SpectralMeasure(((1.0, 0.5), (4.0, 0.5)))),
    two_mass_mixture(1.0, 4.0),
], ids=["one_atom_leaf", "two_atom_leaf", "two_mass_mixture"])
def test_cluster_witness_is_the_distance_to_delta_infinity(cluster_probes, model):
    # on one leaf Delta_inf is exactly +0.0, so the witness is |Delta(a_max)|
    f, g = cluster_probes
    rep, curve = check_cluster_defect(model, f, g, [4, 8, 12, 16])
    d_inf = complex(*rep.details["delta_infinity"])
    assert rep.witness == abs(curve[-1][1] - d_inf)
    if isinstance(model, QuasiFree):
        assert rep.details["delta_infinity"] == [0.0, 0.0]
        assert rep.details["mode"] == "clusters"
        assert rep.witness == abs(curve[-1][1])
    else:
        assert rep.details["mode"] == "defect"


def test_separation_beyond_quarter_box_rejected(cluster_grid, cluster_probes):
    f, g = cluster_probes
    leaf = QuasiFree(SpectralMeasure.delta(1.0))
    with pytest.raises(DomainError, match="L/4"):
        check_cluster_defect(leaf, f, g, [24])


# ---------------------------------------------------------------------------
# reports and the suite
# ---------------------------------------------------------------------------

def test_report_passed_follows_the_witness():
    assert CheckReport("demo", 0.5, 0.5, "<=", "").passed
    assert not CheckReport("demo", 0.6, 0.5, "<=", "").passed
    assert CheckReport("demo", -1e-9, -1e-9, ">=", "").passed
    assert not CheckReport("demo", -2e-9, -1e-9, ">=", "").passed
    assert not CheckReport("demo", float("nan"), 0.5, "<=", "").passed
    assert CheckReport("demo", 0.1, 0.5, "<=", "").as_dict()["passed"] is True
    with pytest.raises(DomainError, match="bad comparison"):
        CheckReport("demo", 1.0, 0.5, "<", "")


def test_suite_passes_and_classifies(grid_2d, free_leaf, mixture_14):
    config = SuiteConfig(grid=grid_2d, seed=5)
    res_leaf = run_axiom_suite(free_leaf, config)
    assert res_leaf.passed and res_leaf.quasi_free
    res_mix = run_axiom_suite(mixture_14, config)
    assert res_mix.passed and not res_mix.quasi_free
    ids = [r.check_id for r in res_mix.reports]
    assert ids == ["normalization_neutrality", "reflection_positivity",
                   "stochastic_positivity", "euclidean_invariance", "cluster"]


def test_suite_is_deterministic(grid_2d, mixture_14):
    config = SuiteConfig(grid=grid_2d, seed=11)
    a = run_axiom_suite(mixture_14, config)
    b = run_axiom_suite(mixture_14, config)
    assert json.dumps(a.as_dict(), sort_keys=True) == \
        json.dumps(b.as_dict(), sort_keys=True)


def test_suite_rejects_unknown_tolerance_keys(grid_2d, mixture_14):
    config = SuiteConfig(grid=grid_2d, tolerances={"reflekshun": 1e-9})
    with pytest.raises(SchemaError, match="reflekshun"):
        run_axiom_suite(mixture_14, config)


def test_suite_resolved_tolerances_are_the_checker_defaults(grid_2d):
    assert SuiteConfig(grid=grid_2d).resolved_tolerances() == {
        "normalization_neutrality": 1e-12, "reflection_positivity": -1e-9,
        "stochastic_positivity": -1e-9, "euclidean_invariance": 1e-10, "cluster": 1e-6}
    moved = SuiteConfig(grid=grid_2d, tolerances={"cluster": 1}).resolved_tolerances()
    assert moved["cluster"] == 1.0 and moved["euclidean_invariance"] == 1e-10


def test_summary_table_shape(grid_2d, mixture_14):
    res = run_axiom_suite(mixture_14, SuiteConfig(grid=grid_2d, seed=2))
    lines = summary_lines(res)
    assert any("quasi-free: false" in ln for ln in lines)
    assert lines[-1].startswith("suite:")


@pytest.mark.parametrize("grid_args", [(1, 64, 0.5), (2, 8, 0.5), (3, 16, 0.5)])
def test_suite_runs_on_every_supported_dimension(grid_args, mixture_14):
    grid = Grid(*grid_args)
    res = run_axiom_suite(mixture_14, SuiteConfig(grid=grid, seed=4))
    assert res.passed
    assert not res.quasi_free


# ---------------------------------------------------------------------------
# quasi-free classification
# ---------------------------------------------------------------------------

GRIDS = [(1, 64, 0.5), (2, 32, 0.25), (3, 16, 0.5)]
ONE = QuasiFree(SpectralMeasure.delta(1.0))


def _tied_leaf(f):
    """Atoms at m2 = 1/4 and 4 of total weight 1 whose S2(f, f) is ONE's."""
    s_one, s_light, s_heavy = (spectral_two_point(f, f, SpectralMeasure.delta(m2)).real
                               for m2 in (1.0, 0.25, 4.0))
    a = (s_one - s_heavy) / (s_light - s_heavy)
    assert 0.0 < a < 1.0
    return QuasiFree(SpectralMeasure(((0.25, a), (4.0, 1.0 - a))))


@pytest.mark.parametrize("grid_args", GRIDS, ids=["1d", "2d", "3d"])
def test_tuned_ties_are_not_quasi_free(grid_args):
    grid = Grid(*grid_args)
    probes = [fixture_packet(grid),
              gaussian_packet(grid, [grid.extent / 3] * grid.d, 2 * grid.spacing),
              random_real_functions(grid, rng_from_seed(233), 1)[0]]
    for f in probes:
        tied = envelope([(0.5, ONE), (0.5, _tied_leaf(f))])
        s2 = tied.leaf_two_point([f], [f])[0].real
        assert s2[1] == pytest.approx(s2[0], rel=1e-14, abs=0)
        assert quasi_free_defect(tied, grid) > 0.05
        res = run_axiom_suite(tied, SuiteConfig(grid=grid, seed=3))
        assert res.passed and res.quasi_free is False
    # tied on the fixture packet, the fourth cumulant there vanishes: the
    # one-probe rule calls the mixture quasi-free
    assert probe_quasi_free(envelope([(0.5, ONE), (0.5, _tied_leaf(probes[0]))]), grid)


def test_leaves_of_weight_zero_are_ignored(grid_2d):
    other = QuasiFree(SpectralMeasure(((4.0, 1.0),)))
    for model in (envelope([(1.0, ONE), (0.0, other)]),
                  envelope([(0.0, other), (1.0, ONE)]),
                  envelope([(0.0, envelope([(0.5, other), (0.5, ONE)])), (1.0, ONE)]),
                  Mixture(((0.0, ONE), (0.0, other)))):    # no leaf of positive weight
        assert quasi_free_defect(model, grid_2d) == 0.0
    res = run_axiom_suite(envelope([(0.0, other), (1.0, ONE)]), SuiteConfig(grid=grid_2d))
    assert res.passed and res.quasi_free


def test_identical_leaves_in_any_tree_shape_are_exactly_quasi_free(grid_2d):
    def leaf():
        return QuasiFree(SpectralMeasure(((1.0, 0.5), (4.0, 0.3), (9.0, 0.2))))
    shapes = [leaf(),
              envelope([(0.3, leaf()), (0.7, leaf())]),
              envelope([(0.5, envelope([(0.2, leaf()), (0.8, leaf())])), (0.5, leaf())]),
              envelope([(0.1, leaf()), (0.6, envelope([(0.5, leaf()), (0.5, envelope(
                  [(0.25, leaf()), (0.75, leaf())]))])), (0.3, leaf())])]
    for model in shapes:
        assert quasi_free_defect(model, grid_2d) == 0.0
    res = run_axiom_suite(shapes[-1], SuiteConfig(grid=grid_2d, seed=6))
    assert res.passed and res.quasi_free


@pytest.mark.parametrize("grid_args", GRIDS, ids=["1d", "2d", "3d"])
def test_measures_equal_up_to_roundoff_are_quasi_free(grid_args):
    grid = Grid(*grid_args)
    pairs = [(((1.0, 0.1), (1.0, 0.2)), ((1.0, 0.3),)),
             (((4.0, 0.2), (1.0, 0.1), (1.0, 0.7)), ((1.0, 0.8), (4.0, 0.2)))]
    for merged, direct in pairs:
        model = envelope([(0.5, QuasiFree(SpectralMeasure(merged))),
                          (0.5, QuasiFree(SpectralMeasure(direct)))])
        assert model._atom_table[2][0].tolist() != model._atom_table[2][1].tolist()
        assert 0.0 < quasi_free_defect(model, grid) <= ROUNDOFF_FLOOR
        assert probe_quasi_free(model, grid)


@pytest.mark.bits
@pytest.mark.parametrize("grid_args", GRIDS, ids=["1d", "2d", "3d"])
def test_quasi_free_defect_on_the_half_grid_is_bit_identical_to_the_full_grid(grid_args):
    # khat^2 is even in k, so the half grid holds every value of every symbol
    grid = Grid(*grid_args)
    tied = QuasiFree(SpectralMeasure(((0.25, 0.3096322759589235), (4.0, 0.6903677240410765))))
    other = QuasiFree(SpectralMeasure.delta(4.0))
    same = QuasiFree(SpectralMeasure(((1.0, 0.5), (4.0, 0.3), (9.0, 0.2))))
    pool = rng_from_seed(424242)   # the benchmark's model pool
    models = (MODEL_FAMILY + [envelope([(0.5, ONE), (0.5, tied)]),
                              envelope([(0.0, other), (0.4, ONE), (0.6, tied)]),
                              envelope([(0.3, same), (0.7, same)]),
                              Mixture(((0.0, ONE), (0.0, other)))]
              + [random_model_tree(pool, max_depth=3) for _ in range(48)])
    for model in models:
        assert (quasi_free_defect(model, grid).hex()
                == full_grid_quasi_free_defect(model, grid).hex())


def _valid(tree):
    try:
        validate_model(tree)
    except DomainError:
        return False
    return True


@pytest.mark.parametrize("grid_args", GRIDS, ids=["1d", "2d", "3d"])
def test_classification_agrees_with_the_one_probe_rule(grid_args):
    grid = Grid(*grid_args)
    rng = rng_from_seed(239)
    models = (MODEL_FAMILY + [tree for _, tree in ORACLE_TREES if _valid(tree)]
              + [random_model_tree(rng, max_depth=3) for _ in range(12)])
    flags = [quasi_free_defect(model, grid) <= ROUNDOFF_FLOOR for model in models]
    assert flags == [probe_quasi_free(model, grid) for model in models]
    assert True in flags and False in flags
