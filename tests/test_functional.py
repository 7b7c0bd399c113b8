"""Generating functionals: evaluation, moments, cumulants, gaussianization,
regularity.  Oracles: explicit pairing expansions, finite differences,
hand-derived closed forms for the two-mass mixture, and cumulants by
conditioning on the leaf (law of total cumulance)."""

import math

import numpy as np
import pytest

from schwingerlab import (BoundsError, DomainError, ModelError, Mixture, QuasiFree,
                          SchemaError, SpectralMeasure, TestFunction,
                          cumulant, cumulant_scale, envelope, free_two_point,
                          gaussian_packet, gaussianize, load_model, model_from_dict,
                          model_to_dict, moment_analytic, moment_growth_check,
                          moment_numeric, regularity_certificate, save_model,
                          sobolev_norm, spectral_two_point)
from schwingerlab.experiments import two_mass_mixture
from schwingerlab.fixtures import (random_model_tree, random_real_function,
                                   rng_from_seed)
from schwingerlab.lattice import Grid
from schwingerlab.functional import (MAX_TREE_DEPTH, MomentTable, _leaf_grams,
                                     min_mass_sq, validate_model)
from schwingerlab.partitions import pairings


def nested_mixture():
    """Depth-3 tree exercising path-weight flattening."""
    inner = envelope([
        (0.25, QuasiFree(SpectralMeasure.delta(1.0))),
        (0.75, QuasiFree(SpectralMeasure(((2.0, 0.5), (5.0, 0.5))))),
    ])
    return envelope([
        (0.4, inner),
        (0.6, QuasiFree(SpectralMeasure.delta(4.0))),
    ])


MODEL_FAMILY = [
    QuasiFree(SpectralMeasure.delta(1.0)),
    QuasiFree(SpectralMeasure(((1.0, 0.5), (4.0, 0.5)))),
    two_mass_mixture(1.0, 4.0),
    nested_mixture(),
]


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_normalization(grid_2d):
    zero = TestFunction.zeros(grid_2d)
    for model in MODEL_FAMILY:
        assert model.evaluate(zero) == 1.0


def test_neutrality(grid_2d):
    # equality up to the roundoff imaginary residue of the momentum sum
    f = random_real_function(grid_2d, rng_from_seed(7))
    for model in MODEL_FAMILY:
        assert abs(model.evaluate(-f) - model.evaluate(f).conjugate()) <= 1e-15


def test_two_atom_mass_mixture_formula(grid_2d, packet):
    model = two_mass_mixture(1.0, 4.0)
    want = 0.5 * math.exp(-0.5 * sobolev_norm(packet, 1.0) ** 2) \
        + 0.5 * math.exp(-0.5 * sobolev_norm(packet, 4.0) ** 2)
    assert model.evaluate(packet) == pytest.approx(want, rel=1e-14)


def test_quasifree_gaussian_in_z(packet, free_leaf):
    s2 = free_two_point(packet, packet, 1.0)
    for z in (0.5, 2.0, 1.5j, 1.0 + 0.5j):
        want = np.exp(-0.5 * z * z * s2)
        assert free_leaf.evaluate(packet, z) == pytest.approx(want, rel=1e-13)


# ---------------------------------------------------------------------------
# moment_analytic
# ---------------------------------------------------------------------------

def test_odd_moments_vanish(grid_2d, packet):
    rng = rng_from_seed(11)
    g = random_real_function(grid_2d, rng)
    for model in MODEL_FAMILY:
        assert moment_analytic(model, [packet]) == 0
        assert moment_analytic(model, [packet, g, packet]) == 0


def test_second_moment_is_the_two_point_function(grid_2d, packet):
    rng = rng_from_seed(13)
    g = random_real_function(grid_2d, rng)
    leaf = QuasiFree(SpectralMeasure(((1.0, 0.5), (4.0, 0.5))))
    assert moment_analytic(leaf, [packet, g]) == pytest.approx(
        spectral_two_point(packet, g, leaf.rho), rel=1e-14)
    mix = two_mass_mixture(1.0, 4.0)
    want = 0.5 * free_two_point(packet, g, 1.0) + 0.5 * free_two_point(packet, g, 4.0)
    assert moment_analytic(mix, [packet, g]) == pytest.approx(want, rel=1e-13)


def test_fourth_moment_is_the_three_pairing_sum(grid_2d):
    rng = rng_from_seed(17)
    fs = [random_real_function(grid_2d, rng) for _ in range(4)]
    m2 = 1.0
    leaf = QuasiFree(SpectralMeasure.delta(m2))

    def s2(i, j):
        return free_two_point(fs[i], fs[j], m2)

    want = s2(0, 1) * s2(2, 3) + s2(0, 2) * s2(1, 3) + s2(0, 3) * s2(1, 2)
    assert moment_analytic(leaf, fs) == pytest.approx(want, rel=1e-13)


def test_sixth_moment_pairing_count(grid_2d, packet):
    # equal arguments: S6 = 15 * S2^3 for a single-mass Gaussian
    leaf = QuasiFree(SpectralMeasure.delta(1.0))
    s2 = free_two_point(packet, packet, 1.0)
    assert len(pairings(6)) == 15
    assert moment_analytic(leaf, [packet] * 6) == pytest.approx(
        15 * s2 ** 3, rel=1e-12)


def test_mixture_moments_are_weight_linear(grid_2d):
    rng = rng_from_seed(19)
    fs = [random_real_function(grid_2d, rng) for _ in range(4)]
    g1 = QuasiFree(SpectralMeasure.delta(1.0))
    g2 = QuasiFree(SpectralMeasure(((2.0, 0.5), (6.0, 0.5))))
    mix = envelope([(0.3, g1), (0.7, g2)])
    want = 0.3 * moment_analytic(g1, fs) + 0.7 * moment_analytic(g2, fs)
    assert moment_analytic(mix, fs) == pytest.approx(want, rel=1e-14)


def recursive_leaves(G):
    """Depth-first (path weight, leaf) pairs, inner weight products first."""
    if isinstance(G, QuasiFree):
        yield (1.0, G)
        return
    for w, child in G.children:
        for wl, leaf in recursive_leaves(child):
            yield (w * wl, leaf)


def leaf_table_models():
    rng = rng_from_seed(127)
    trees = [random_model_tree(rng, max_depth=3) for _ in range(6)]
    shared = envelope([   # two leaves share the mass 2.0
        (0.3, QuasiFree(SpectralMeasure(((2.0, 0.6), (5.0, 0.4))))),
        (0.7, envelope([(0.5, QuasiFree(SpectralMeasure.delta(2.0))),
                        (0.5, QuasiFree(SpectralMeasure(((1.0, 0.2), (2.0, 0.8)))))])),
    ])
    # depth 4, so association shows: 0.1 * (0.2 * 0.3) != (0.1 * 0.2) * 0.3
    deep = QuasiFree(SpectralMeasure.delta(1.5))
    for w, m2 in ((0.3, 2.5), (0.2, 3.5), (0.1, 4.5)):
        deep = envelope([(w, deep), (1.0 - w, QuasiFree(SpectralMeasure.delta(m2)))])
    unnormalized = Mixture(((0.5, nested_mixture()),
                            (0.9, QuasiFree(SpectralMeasure.delta(3.0)))))
    return trees + [shared, deep, unnormalized]


@pytest.mark.parametrize("model", leaf_table_models(), ids=[
    *(f"random_tree{i}" for i in range(6)), "shared_mass", "depth4", "unnormalized"])
def test_leaf_table_matches_per_leaf_two_point(model):
    assert model.leaves() == tuple(recursive_leaves(model))
    grid = Grid(2, 16, 0.5)
    rng = rng_from_seed(131)
    f, g = (random_real_function(grid, rng) for _ in range(2))
    want = sum(w * spectral_two_point(f, g, leaf.rho)
               for w, leaf in recursive_leaves(model))
    assert moment_analytic(model, [f, g]) == pytest.approx(want, rel=1e-13, abs=0)


def test_moment_order_cap():
    grid = two_mass_mixture(1.0, 4.0)
    with pytest.raises(BoundsError, match="1..8"):
        moment_analytic(grid, [None] * 9)


# ---------------------------------------------------------------------------
# moment_numeric
# ---------------------------------------------------------------------------

def test_numeric_first_moment_vanishes(packet, mixture_14):
    got = moment_numeric(mixture_14, [packet])
    assert abs(got.value) <= 1e-9
    assert not got.precision_warning


@pytest.mark.parametrize("model_idx", range(len(MODEL_FAMILY)))
def test_numeric_matches_analytic_n2(grid_2d, packet, model_idx):
    model = MODEL_FAMILY[model_idx]
    g = random_real_function(grid_2d, rng_from_seed(23))
    want = moment_analytic(model, [packet, g])
    got = moment_numeric(model, [packet, g])
    assert abs(got.value - want) <= 1e-7 * abs(want)
    assert not got.precision_warning


@pytest.mark.parametrize("model_idx", range(len(MODEL_FAMILY)))
def test_numeric_matches_analytic_n4(grid_2d, packet, model_idx):
    model = MODEL_FAMILY[model_idx]
    want = moment_analytic(model, [packet] * 4)
    got = moment_numeric(model, [packet] * 4)
    assert abs(got.value - want) <= 1e-5 * abs(want)
    assert not got.precision_warning


def test_numeric_cap():
    with pytest.raises(BoundsError, match="1..4"):
        moment_numeric(two_mass_mixture(1.0, 4.0), [None] * 5)


# ---------------------------------------------------------------------------
# cumulant
# ---------------------------------------------------------------------------

def test_quasifree_fourth_cumulant_vanishes(grid_2d, packet):
    for leaf in (QuasiFree(SpectralMeasure.delta(1.0)),
                 QuasiFree(SpectralMeasure(((1.0, 0.5), (4.0, 0.5))))):
        got = cumulant(leaf, [packet] * 4)
        scale = cumulant_scale(leaf, [packet] * 4)
        assert abs(got) <= 1e-12 * scale


def test_two_mass_fourth_cumulant_closed_form(grid_2d):
    # quarter sum over the three pairings of products of two-point
    # differences, for distinct arguments
    rng = rng_from_seed(29)
    fs = [random_real_function(grid_2d, rng) for _ in range(4)]
    mix = two_mass_mixture(1.0, 4.0)

    def ds2(i, j):
        return free_two_point(fs[i], fs[j], 1.0) - free_two_point(fs[i], fs[j], 4.0)

    want = 0.25 * (ds2(0, 1) * ds2(2, 3) + ds2(0, 2) * ds2(1, 3)
                   + ds2(0, 3) * ds2(1, 2))
    got = cumulant(mix, fs)
    assert got == pytest.approx(want, rel=1e-12)
    assert abs(got) > 0


def test_degenerate_two_mass_cumulant_vanishes(grid_2d, packet):
    mix = two_mass_mixture(2.0, 2.0)  # merged into one leaf pair with equal S2
    got = cumulant(mix, [packet] * 4)
    scale = cumulant_scale(mix, [packet] * 4)
    assert abs(got) <= 1e-12 * scale


def test_quasifree_characterization_both_directions(grid_2d, packet):
    rng = rng_from_seed(31)
    leaf = QuasiFree(SpectralMeasure(((1.0, 0.25), (3.0, 0.75))))
    for n in (3, 4, 5, 6):
        fs = [random_real_function(grid_2d, rng) for _ in range(n)]
        got = cumulant(leaf, fs)
        scale = cumulant_scale(leaf, fs)
        assert abs(got) <= 1e-12 * max(scale, 1e-300)
    # and the converse: a genuine mixture shows a fourth cumulant
    mix = two_mass_mixture(1.0, 4.0)
    got = cumulant(mix, [packet] * 4)
    assert abs(got) > 1e-6 * cumulant_scale(mix, [packet] * 4)


def test_nontriviality_lower_bound(packet):
    # connected 4-point of the half/half mixture equals (3/4) dS2^2 exactly
    mix = two_mass_mixture(1.0, 4.0)
    ds2 = (free_two_point(packet, packet, 1.0)
           - free_two_point(packet, packet, 4.0)).real
    got = cumulant(mix, [packet] * 4).real
    assert got >= 0.75 * ds2 ** 2 - 1e-10
    assert got > 0


# ---------------------------------------------------------------------------
# gaussianize
# ---------------------------------------------------------------------------

def test_gaussianize_is_idempotent_on_leaves():
    leaf = QuasiFree(SpectralMeasure(((1.0, 0.5), (4.0, 0.5))))
    assert gaussianize(leaf) is leaf


def test_gaussianize_two_mass_mixture(packet):
    mix = two_mass_mixture(1.0, 4.0)
    flat = gaussianize(mix)
    assert flat.rho.atoms == ((1.0, 0.5), (4.0, 0.5))
    # same two-point function, dead fourth cumulant
    assert moment_analytic(flat, [packet, packet]) == pytest.approx(
        moment_analytic(mix, [packet, packet]), rel=1e-14)
    before = cumulant(mix, [packet] * 4)
    after = cumulant(flat, [packet] * 4)
    assert abs(before) > 1e-3 * cumulant_scale(mix, [packet] * 4)
    assert abs(after) <= 1e-12 * cumulant_scale(flat, [packet] * 4)


def test_gaussianize_flattens_path_weights(grid_2d, packet):
    tree = nested_mixture()
    flat = gaussianize(tree)
    # weights are the products along each root-to-atom path
    want = {1.0: 0.4 * 0.25, 2.0: 0.4 * 0.75 * 0.5, 5.0: 0.4 * 0.75 * 0.5,
            4.0: 0.6}
    got = dict(flat.rho.atoms)
    assert set(got) == set(want)
    for m2, w in want.items():
        assert got[m2] == pytest.approx(w, rel=1e-14)
    for n in (4, 6):
        assert abs(cumulant(flat, [packet] * n)) <= \
            1e-12 * cumulant_scale(flat, [packet] * n)
    assert moment_analytic(flat, [packet] * 2) == pytest.approx(
        moment_analytic(tree, [packet] * 2), rel=1e-13)


# ---------------------------------------------------------------------------
# envelope
# ---------------------------------------------------------------------------

def test_single_child_envelope_is_transparent(grid_2d, packet):
    leaf = QuasiFree(SpectralMeasure.delta(2.0))
    wrapped = envelope([(1.0, leaf)])
    g = random_real_function(grid_2d, rng_from_seed(37))
    assert wrapped.evaluate(packet) == leaf.evaluate(packet)
    for n in (2, 4):
        assert moment_analytic(wrapped, [packet, g] * (n // 2)) == \
            moment_analytic(leaf, [packet, g] * (n // 2))


def test_envelope_rejects_bad_weights():
    leaf = QuasiFree(SpectralMeasure.delta(1.0))
    with pytest.raises(ModelError, match="sum"):
        envelope([(0.5, leaf), (0.4, leaf)])
    with pytest.raises(ModelError, match=">= 0"):
        envelope([(1.5, leaf), (-0.5, leaf)])
    with pytest.raises(ModelError, match="at least one"):
        envelope([])


def test_depth_bound_enforced():
    node = QuasiFree(SpectralMeasure.delta(1.0))
    for _ in range(MAX_TREE_DEPTH - 1):
        node = envelope([(1.0, node)])
    with pytest.raises(ModelError, match="depth"):
        envelope([(1.0, node)])


def test_validate_model_detects_corruption():
    leaf = QuasiFree(SpectralMeasure.delta(1.0))
    bad = Mixture(((0.5, leaf), (0.4, leaf)))  # raw constructor, no gate
    with pytest.raises(ModelError, match="sum"):
        validate_model(bad)
    validate_model(nested_mixture())


def test_min_mass_floor():
    assert min_mass_sq(nested_mixture()) == 1.0
    assert min_mass_sq(QuasiFree(SpectralMeasure.delta(2.5))) == 2.5


# ---------------------------------------------------------------------------
# regularity and growth
# ---------------------------------------------------------------------------

def test_regularity_certificate_on_the_family(packet):
    for model in MODEL_FAMILY:
        cert = regularity_certificate(model, packet)
        assert cert.passed
        assert cert.bound.e == cert.bound.e_prime == 2.0
        assert 0 < cert.bound.constant <= 0.5 + 1e-12


def test_imaginary_axis_saturates_the_gaussian_bound(packet, free_leaf):
    s2 = free_two_point(packet, packet, 1.0).real
    for r in (0.5, 2.0, 4.0):
        val = abs(free_leaf.evaluate(packet, 1j * r))
        assert val == pytest.approx(math.exp(0.5 * r * r * s2), rel=1e-12)


def test_mixture_constant_bounded_by_children(packet):
    g1 = QuasiFree(SpectralMeasure.delta(1.0))
    g2 = QuasiFree(SpectralMeasure.delta(4.0))
    mix = envelope([(0.5, g1), (0.5, g2)])
    c_children = max(regularity_certificate(g, packet).bound.constant
                     for g in (g1, g2))
    c_mix = regularity_certificate(mix, packet).bound.constant
    assert c_mix <= c_children + 1e-12


def test_moment_growth_bound(grid_2d):
    for model in (QuasiFree(SpectralMeasure.delta(1.0)), two_mass_mixture(1.0, 4.0)):
        rep = moment_growth_check(model, grid_2d, n_max=8, trials=3, seed=5)
        assert rep.passed
        assert rep.k <= 4.0
        # odd orders contribute nothing
        odd = dict(rep.per_order)
        assert odd[1] == 0.0 and odd[3] == 0.0


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------

def test_model_file_roundtrip(tmp_path):
    model = nested_mixture()
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert back == model
    assert model_to_dict(back) == model_to_dict(model)


def test_model_schema_rejects_unknown_keys():
    with pytest.raises(SchemaError, match="extra"):
        model_from_dict({"kind": "quasifree", "atoms": [[1.0, 1.0]], "extra": 1})


def test_model_schema_rejects_bad_weights():
    doc = {"kind": "mixture", "children": [
        {"weight": 0.5, "model": {"kind": "quasifree", "atoms": [[1.0, 1.0]]}},
        {"weight": 0.4, "model": {"kind": "quasifree", "atoms": [[4.0, 1.0]]}},
    ]}
    with pytest.raises(SchemaError, match="sum"):
        model_from_dict(doc)


def test_model_schema_rejects_bad_atoms_and_kind():
    with pytest.raises(SchemaError, match="atoms"):
        model_from_dict({"kind": "quasifree", "atoms": [[1e-12, 1.0]]})
    with pytest.raises(SchemaError, match="kind"):
        model_from_dict({"kind": "noise"})


def test_sixth_cumulant_matches_classical_univariate_formula(packet):
    # kappa6 = m6 - 15 m2 m4 + 30 m2^3 for a symmetric scalar law: an
    # oracle that never touches the partition lattice
    mix = envelope([(0.3, QuasiFree(SpectralMeasure.delta(1.0))),
                    (0.7, QuasiFree(SpectralMeasure.delta(4.0)))])
    s1 = free_two_point(packet, packet, 1.0).real
    s2 = free_two_point(packet, packet, 4.0).real
    m2 = 0.3 * s1 + 0.7 * s2
    m4 = 3 * (0.3 * s1 ** 2 + 0.7 * s2 ** 2)
    m6 = 15 * (0.3 * s1 ** 3 + 0.7 * s2 ** 3)
    want = m6 - 15 * m2 * m4 + 30 * m2 ** 3
    got = cumulant(mix, [packet] * 6).real
    assert got == pytest.approx(want, rel=1e-12)


def test_cumulant_agrees_with_log_derivative_definition(packet, mixture_14):
    # the defining mixed derivative of log Gamma at 0, taken by central
    # differences with one Richardson level, against the transform route
    import itertools

    import numpy as np

    norms = [sobolev_norm(packet, min_mass_sq(mixture_14))] * 4

    def stencil(scale):
        acc = 0.0
        for signs in itertools.product((1.0, -1.0), repeat=4):
            combo = TestFunction.zeros(packet.grid)
            for s, nu in zip(signs, norms):
                combo = combo + (s * scale / nu) * packet
            acc += float(np.prod(signs)) * math.log(
                mixture_14.evaluate(combo).real)
        denom = 1.0
        for nu in norms:
            denom *= 2.0 * scale / nu
        return acc / denom

    h0 = np.finfo(float).eps ** 0.125
    fd = (4.0 * stencil(h0 / 2) - stencil(h0)) / 3.0  # 1/i^4 = 1
    want = cumulant(mixture_14, [packet] * 4).real
    assert fd == pytest.approx(want, rel=1e-5)


# ---------------------------------------------------------------------------
# cumulants by conditioning on the leaf
# ---------------------------------------------------------------------------

def own_pairings(items):
    """Perfect matchings of a tuple: its first element paired with each other."""
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for j, other in enumerate(rest):
        for tail in own_pairings(rest[:j] + rest[j + 1:]):
            yield ((first, other),) + tail


def own_partitions(items):
    """Set partitions of a tuple: its last element put into each block of
    every partition of the rest, or into a block of its own."""
    if not items:
        yield ()
        return
    *rest, last = items
    for smaller in own_partitions(tuple(rest)):
        for i in range(len(smaller)):
            yield smaller[:i] + (smaller[i] + (last,),) + smaller[i + 1:]
        yield smaller + ((last,),)


def leaf_joint_cumulant(weights, xs):
    """Joint cumulant of random variables over the leaves, a leaf drawn with
    its path weight; xs[j][l] is the j-th variable on leaf l."""
    total = 0j
    for blocks in own_partitions(tuple(range(len(xs)))):
        k = len(blocks)
        mixed = [weights @ np.prod([xs[j] for j in block], axis=0) for block in blocks]
        total += (-1) ** (k - 1) * math.factorial(k - 1) * math.prod(mixed)
    return total


CONDITIONING_GRID = Grid(2, 16, 0.5)


def conditioning_cases():
    # four random depth-3 trees of two or more leaves: on a single leaf
    # both sides are roundoff around zero
    rng = rng_from_seed(31337)
    models = []
    while len(models) < 4:
        model = random_model_tree(rng, max_depth=3)
        if len(model.leaves()) > 1:
            models.append(model)
    cases = []
    for t, model in enumerate(models):
        fs = [gaussian_packet(CONDITIONING_GRID, rng.uniform(0.0, 8.0, 2),
                              rng.uniform(1.0, 2.0), rng.uniform(-1.0, 1.0, 2))
              for _ in range(8)]
        for n in (4, 6, 8):
            cases.append(pytest.param(model, fs[:n], id=f"tree{t}-n{n}-distinct"))
            cases.append(pytest.param(model, fs[:1] * n, id=f"tree{t}-n{n}-equal"))
    return cases


@pytest.mark.parametrize("model,fs", conditioning_cases())
def test_cumulant_matches_total_cumulance_over_leaves(model, fs):
    # Given its leaf the field is centered Gaussian, so by the law of total
    # cumulance kappa(f_1..f_n) = sum over pairings pi of the joint leaf
    # cumulant of (S2_l(B_1), ..., S2_l(B_k)); the partition lattice and the
    # Wick pairing sum are not used.
    leaves = model.leaves()
    weights = np.array([w for w, _ in leaves])
    s2 = {(i, j): np.array([spectral_two_point(fs[i], fs[j], leaf.rho)
                            for _, leaf in leaves])
          for i in range(len(fs)) for j in range(i + 1, len(fs))}
    want = sum(leaf_joint_cumulant(weights, [s2[pair] for pair in pairing])
               for pairing in own_pairings(tuple(range(len(fs)))))
    assert abs(cumulant(model, fs) - want) <= 1e-12 * cumulant_scale(model, fs)


@pytest.mark.parametrize("model,fs", conditioning_cases()[:6] + [
    pytest.param(nested_mixture(), [gaussian_packet(CONDITIONING_GRID, [4.0, 4.0], 1.0)] * 3,
                 id="nested-n3-equal")])
def test_cumulant_scale_is_the_absolute_moebius_sum(model, fs):
    # sum over set partitions of (|pi|-1)! prod_B |S_B|, each S_B the
    # analytic moment of the sub-collection B
    moments = {}
    want = 0.0
    for blocks in own_partitions(tuple(range(len(fs)))):
        prod = math.factorial(len(blocks) - 1)
        for block in blocks:
            if block not in moments:
                moments[block] = abs(moment_analytic(model, [fs[i] for i in block]))
            prod *= moments[block]
        want += prod
    assert cumulant_scale(model, fs) == pytest.approx(want, rel=1e-12, abs=0)


def test_conditioned_cumulants_are_exact_zeros():
    # a gaussianized tree is one leaf: Q_l - Qbar is exactly 0, so every
    # cumulant above order two is exactly 0, not roundoff; an odd
    # sub-collection has an odd block in every partition, so its cumulant is
    # exactly 0 for mixtures too
    for case in conditioning_cases():
        model, fs = case.values
        assert cumulant(gaussianize(model), fs) == 0
        table = MomentTable(model, fs)
        odd = [s for s in range(1 << len(fs)) if s.bit_count() % 2]
        assert np.all(table.cumulants[odd] == 0)
        assert np.all(table.moments[odd] == 0)
        assert abs(table.cumulants[-1]) > 1e-6 * table.scales[-1]


def test_moment_table_entries_match_per_order_calls():
    # cmd_moments reads its prefix rows from one table at the top order
    model, fs = conditioning_cases()[4].values
    table = MomentTable(model, fs)
    norms = [abs(moment_analytic(model, [f, f])) ** 0.5 for f in fs]
    for n in range(1, len(fs) + 1):
        entry = (1 << n) - 1
        scale = cumulant_scale(model, fs[:n])
        assert table.scales[entry] == pytest.approx(scale, rel=1e-13, abs=0)
        tol = 1e-13 * max(scale, math.prod(norms[:n]))
        assert abs(table.moments[entry] - moment_analytic(model, fs[:n])) <= tol
        assert abs(table.cumulants[entry] - cumulant(model, fs[:n])) <= tol


def test_batched_grams_match_the_two_point_kernel():
    # the one-pair kernel two_point_sums is the oracle for the per-mass matmul
    model, fs = conditioning_cases()[4].values
    weights, grams = _leaf_grams(model, fs)
    for l, (w, leaf) in enumerate(model.leaves()):
        assert weights[l] == w
        for i, f in enumerate(fs):
            for j, g in enumerate(fs):
                want = spectral_two_point(f, g, leaf.rho)
                assert grams[l, i, j] == pytest.approx(want, rel=1e-13, abs=1e-16)


@pytest.mark.parametrize("route", [moment_analytic, cumulant, cumulant_scale])
def test_functions_on_two_grids_are_rejected(route, packet):
    other = gaussian_packet(CONDITIONING_GRID, [4.0, 4.0], 1.0)
    with pytest.raises(DomainError, match="one grid"):
        route(two_mass_mixture(1.0, 4.0), [packet, other, packet, packet])
