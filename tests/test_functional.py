"""Generating functionals: evaluation, moments, cumulants, gaussianization,
regularity.  Oracles: explicit pairing expansions, finite differences,
hand-derived closed forms for the two-mass mixture, and cumulants by
conditioning on the leaf (law of total cumulance)."""

import gc
import itertools
import math
import re
import weakref

import numpy as np
import pytest

from schwingerlab import (DomainError, Mixture, QuasiFree,
                          SchemaError, SpectralMeasure, TestFunction,
                          cumulant, cumulant_scale, envelope, free_two_point,
                          gaussian_packet, gaussianize, load_model, model_from_dict,
                          model_to_dict, moment_analytic, moment_growth_check,
                          moment_numeric, regularity_certificate, save_model,
                          spectral_two_point)
from schwingerlab.experiments import two_mass_mixture
from schwingerlab import fixtures, functional, partitions, propagator
from schwingerlab.fixtures import (_packet_draw, random_model_tree, random_real_functions,
                                   rng_from_seed)
from schwingerlab.lattice import Grid
from schwingerlab.propagator import sobolev_norms, two_point_grams
from schwingerlab.functional import (GROWTH_K_CEILING, GROWTH_TRIALS_CAP, MAX_MOMENT_ORDER,
                                     MAX_TREE_DEPTH, NUMERIC_TOLERANCE_SCHEDULE,
                                     REGULARITY_C_CEILING, ROUNDOFF_FLOOR,
                                     MomentTable,
                                     NumericMoment, _growth_probes, _pair_table,
                                     default_z_grid, min_mass_sq, validate_model)

from oracles import (hafnian, insertion_partitions, laplace_envelope, own_pairings,
                     per_call_pair_exp, two_table_neglog1m)
from schwingerlab.propagator import _weight_table
from test_lattice import _BIT_GRIDS, _BIT_IDS, _bits_equal


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
# evaluate_many
# ---------------------------------------------------------------------------

def test_normalization(grid_2d):
    zero = TestFunction.zeros(grid_2d)
    for model in MODEL_FAMILY:
        assert model.evaluate_many([zero])[0] == 1.0


def test_neutrality(grid_2d):
    # equality up to the roundoff imaginary residue of the momentum sum
    f = random_real_functions(grid_2d, rng_from_seed(7), 1)[0]
    for model in MODEL_FAMILY:
        minus, plus = model.evaluate_many([-f, f])
        assert abs(minus - plus.conjugate()) <= 1e-15


def test_two_atom_mass_mixture_formula(grid_2d, packet):
    model = two_mass_mixture(1.0, 4.0)
    want = 0.5 * math.exp(-0.5 * sobolev_norms([packet], 1.0)[0] ** 2) \
        + 0.5 * math.exp(-0.5 * sobolev_norms([packet], 4.0)[0] ** 2)
    assert model.evaluate_many([packet])[0] == pytest.approx(want, rel=1e-14)


def test_quasifree_gaussian_in_z(packet, free_leaf):
    s2 = free_two_point(packet, packet, 1.0)
    for z in (0.5, 2.0, 1.5j, 1.0 + 0.5j):
        want = np.exp(-0.5 * z * z * s2)
        assert free_leaf.evaluate_many([packet], z)[0] == pytest.approx(want, rel=1e-13)


# ---------------------------------------------------------------------------
# moment_analytic
# ---------------------------------------------------------------------------

def test_odd_moments_vanish(grid_2d, packet):
    rng = rng_from_seed(11)
    g = random_real_functions(grid_2d, rng, 1)[0]
    for model in MODEL_FAMILY:
        assert moment_analytic(model, [packet]) == 0
        assert moment_analytic(model, [packet, g, packet]) == 0


def test_second_moment_is_the_two_point_function(grid_2d, packet):
    rng = rng_from_seed(13)
    g = random_real_functions(grid_2d, rng, 1)[0]
    leaf = QuasiFree(SpectralMeasure(((1.0, 0.5), (4.0, 0.5))))
    assert moment_analytic(leaf, [packet, g]) == pytest.approx(
        spectral_two_point(packet, g, leaf.rho), rel=1e-14)
    mix = two_mass_mixture(1.0, 4.0)
    want = 0.5 * free_two_point(packet, g, 1.0) + 0.5 * free_two_point(packet, g, 4.0)
    assert moment_analytic(mix, [packet, g]) == pytest.approx(want, rel=1e-13)


def test_fourth_moment_is_the_three_pairing_sum(grid_2d):
    rng = rng_from_seed(17)
    fs = random_real_functions(grid_2d, rng, 4)
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
    assert len(list(own_pairings(tuple(range(6))))) == 15
    assert moment_analytic(leaf, [packet] * 6) == pytest.approx(
        15 * s2 ** 3, rel=1e-12)


def test_mixture_moments_are_weight_linear(grid_2d):
    rng = rng_from_seed(19)
    fs = random_real_functions(grid_2d, rng, 4)
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
    f, g = random_real_functions(grid, rng, 2)
    want = sum(w * spectral_two_point(f, g, leaf.rho)
               for w, leaf in recursive_leaves(model))
    assert moment_analytic(model, [f, g]) == pytest.approx(want, rel=1e-13, abs=0)


def test_moment_order_cap():
    grid = two_mass_mixture(1.0, 4.0)
    with pytest.raises(DomainError, match="1..8"):
        moment_analytic(grid, [None] * 9)


def test_grammed_and_normed_arguments_pay_no_complex_transform(grid_2d, monkeypatch):
    # Grams and norms read the real half spectra; only evaluation takes the
    # full one, in one uncached batched FFT per call
    fftn, ffts = np.fft.fftn, []

    def counted(values, *args, **kwargs):
        ffts.append(len(values))   # the batch size of each call
        return fftn(values, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fftn", counted)
    model = nested_mixture()
    rng = rng_from_seed(41)
    moment_args, fs, partners, normed, evaluated = (
        random_real_functions(grid_2d, rng, 4) for _ in range(5))
    moment_args[1] = (0.5 - 2j) * moment_args[1]
    MomentTable(model, moment_args).cumulants
    model.difference_matrix(fs, partners)
    sobolev_norms(normed, min_mass_sq(model))
    assert ffts == [] and all(f._half is not None for f in moment_args + fs + partners + normed)
    model.evaluate_many(evaluated + evaluated[:2])
    assert ffts == [4] and all(f._half is None for f in evaluated)


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
    g = random_real_functions(grid_2d, rng_from_seed(23), 1)[0]
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
    with pytest.raises(DomainError, match="1..4"):
        moment_numeric(two_mass_mixture(1.0, 4.0), [None] * 5)


def test_numeric_steps_and_stencils_outside_float64_raise():
    # on the acceptance packet the order-4 step product prod(2 h_i) is normal
    # at 1e75 x packet, subnormal at 1e77 and 0 at 1e80; a leaf of weight 1e6
    # keeps normal steps at 1e75 but its extrapolant overflows; at floor mass^2
    # 1e300 the packet's floor norm is 1e-150, so the step product overflows
    packet = gaussian_packet(Grid(2, 32, 0.25), [4.0, 4.0], 1.0)
    mix = two_mass_mixture(1.0, 4.0)
    got = moment_numeric(mix, [1e75 * packet] * 4)
    assert np.all(np.isfinite([got.value, *got.stencils, got.disagreement]))
    for model, scale, what in ((mix, 1e77, "underflow"), (mix, 1e80, "underflow"),
                               (QuasiFree(SpectralMeasure(((1.0, 1e6),))), 1e75, "leave"),
                               (QuasiFree(SpectralMeasure(((1e300, 1e300),))), 1.0, "overflow"),
                               (QuasiFree(SpectralMeasure(((1e300, 1.0),))), 1.0, "overflow")):
        with pytest.raises(DomainError, match=f"moment_numeric .*{what}"):
            moment_numeric(model, [scale * packet] * 4)


def _numeric_loop(G, fs):
    """moment_numeric with one evaluation per stencil combination: its oracle.  Each s with
    s_1 = +1 is paired with -s, in index order, as prod(s) (Gamma(c_s) + (-1)^n Gamma(c_-s))."""
    n = len(fs)
    floor = min_mass_sq(G)
    norms = sobolev_norms(fs, floor).tolist()
    h0 = np.finfo(float).eps ** (1.0 / (n + 4))

    def stencil(scale):
        steps = [scale / nu for nu in norms]
        acc = 0j
        for signs in itertools.product((1.0, -1.0), repeat=n - 1):
            pair = []
            for mirror in (1.0, -1.0):
                combo = TestFunction.zeros(fs[0].grid)
                for s, h, f in zip((mirror, *(mirror * t for t in signs)), steps, fs):
                    combo = combo + (s * h) * f
                with np.errstate(over="ignore", invalid="ignore"):
                    pair.append(G.evaluate_many([combo], 1.0)[0])
            acc += math.prod(signs) * (pair[0] + (-1) ** n * pair[1])
        return acc / math.prod(2.0 * h for h in steps)

    d_2h, d_h, d_h2 = stencil(2.0 * h0), stencil(h0), stencil(h0 / 2.0)
    extrap_fine = (4.0 * d_h2 - d_h) / 3.0
    extrap_coarse = (4.0 * d_h - d_2h) / 3.0
    if not np.isfinite([d_2h, d_h, d_h2, extrap_coarse, extrap_fine]).all():
        raise DomainError("stencils leave float64")
    disagreement = abs(extrap_fine - extrap_coarse)
    tol = NUMERIC_TOLERANCE_SCHEDULE[n]
    warn = disagreement > tol * max(abs(extrap_fine), 1e-3 * math.prod(norms))
    phase = 1j ** n
    return NumericMoment(complex(extrap_fine / phase),
                         (complex(d_2h / phase), complex(d_h / phase),
                          complex(d_h2 / phase)),
                         float(disagreement), bool(warn))


def _numeric_outcome(route, G, fs):
    """A route's NumericMoment, or the type and the message head of the error it raised (a
    numpy warning fails the test: the test suite raises warnings as errors)."""
    try:
        return route(G, fs)
    except (ArithmeticError, DomainError) as exc:
        return type(exc), re.match(r"(?:moment_numeric )?([\w -]*)", str(exc)).group(1)


def _moment_reference(G, fs) -> float:
    """max(cumulant scale, prod_i sqrt(max_l |S2_l(f_i, f_i)|)), the leaf values summed per
    mass; inf where either leaves float64 (the heavy leaf's two-point values do)."""
    _, masses, atoms = G._atom_table
    diag = np.diagonal(two_point_grams(fs, masses, np.eye(len(masses))), axis1=1, axis2=2)
    with np.errstate(over="ignore"):
        s2 = np.hypot(atoms @ diag.real, atoms @ diag.imag).max(axis=0)
    try:
        scale = cumulant_scale(G, fs)
    except DomainError:
        scale = math.inf
    return max(scale, math.prod(np.sqrt(s2).tolist()))


# leaf atom weights from 1e-6 to 1e6, and the leaf whose two-point values overflow
# at the 2-D acceptance packet: the exact power-of-two scaling must hold at both ends
SPREAD_WEIGHTS = envelope([
    (0.3, QuasiFree(SpectralMeasure(((0.5, 1e-6), (2.0, 1e6))))),
    (0.7, QuasiFree(SpectralMeasure(((1.0, 1e3), (4.0, 1e-3), (9.0, 1.0))))),
])
HEAVY_LEAF = QuasiFree(SpectralMeasure(((1e-6, 1e306),)))


def _moving_packets(grid):
    """Four packets of distinct nonzero lattice momenta: complex values, so no sign
    combination of them is a multiple of one function."""
    return [gaussian_packet(grid, [grid.extent / 3 + j * grid.spacing] * grid.d,
                            max(1.0, 2 * grid.spacing),
                            2 * np.pi / grid.extent * np.array([j + 1, -j, 0][:grid.d]))
            for j in range(4)]


# |moment_numeric - _numeric_loop| / _moment_reference of the (value, stencils) per order:
# about 10x the worst gaps over the cases below, 4.5e-16, 3.3e-14 and 1.4e-8 of the value
# and 3.2e-16, 2.5e-14 and 4.7e-7 of the stencils at n = 2, 3, 4 (n = 1 gives 0 gaps)
NUMERIC_AGREEMENT = {1: (1e-16, 1e-16), 2: (5e-15, 5e-15), 3: (5e-13, 5e-13), 4: (2e-7, 5e-6)}


@pytest.mark.bits
@pytest.mark.parametrize("model_idx", range(len(MODEL_FAMILY) + 4))
def test_numeric_agrees_with_the_combination_loop(grid_1d, grid_2d, grid_3d, model_idx):
    # the same outcome, warning flag and, within NUMERIC_AGREEMENT, value and stencils; on
    # the heavy leaf the reference is inf, so its cases compare outcome and flag alone
    rng = rng_from_seed(137)
    model = (MODEL_FAMILY + [random_model_tree(rng, max_depth=3), SPREAD_WEIGHTS, HEAVY_LEAF,
                             envelope([(0.5, HEAVY_LEAF), (0.5, MODEL_FAMILY[2])])])[model_idx]
    for grid in (grid_2d, grid_1d, grid_3d):
        packet = gaussian_packet(grid, [4.0] * grid.d, 1.0)
        fs, moving = random_real_functions(grid, rng, 4), _moving_packets(grid)
        for n in range(1, 5):
            for args in (fs[:n], [packet] * n, moving[:n]):
                got, want = (_numeric_outcome(route, model, args)
                             for route in (moment_numeric, _numeric_loop))
                if not isinstance(want, NumericMoment):
                    assert got == want
                    continue
                assert got.precision_warning == want.precision_warning
                value_bound, stencil_bound = NUMERIC_AGREEMENT[n]
                reference = _moment_reference(model, args)
                assert abs(got.value - want.value) <= value_bound * reference
                assert (max(abs(a - b) for a, b in zip(got.stencils, want.stencils))
                        <= stencil_bound * reference)


@pytest.mark.parametrize("n", range(1, 5))
def test_numeric_reads_one_forms_call_and_evaluates_nothing(grid_2d, monkeypatch, n):
    model, calls = nested_mixture(), []
    fs = random_real_functions(grid_2d, rng_from_seed(43), n)
    moment_numeric(model, fs)   # caches the arguments' rows and the model's weights

    def counted(name, fn):
        return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)
    for owner, name in ((functional, "row_forms"), (propagator, "row_forms"),
                        (functional, "row_grams"), (propagator, "row_grams"),
                        (functional, "two_point_pairs"), (propagator, "two_point_pairs"),
                        (functional.SchwingerFunctional, "evaluate_many"),
                        (TestFunction, "__init__")):
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    for name in np.fft.__all__:
        monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
    moment_numeric(model, fs)
    assert calls == ["row_forms"]


@pytest.mark.bits
@pytest.mark.parametrize("grid_args", _BIT_GRIDS, ids=_BIT_IDS)
def test_numeric_odd_orders_are_exact_zeros(grid_args):
    """Odd n: prod(-s) = -prod(s), and -s has the forms of s bit for bit, so each pair's
    stencil values cancel exactly: value, stencils and disagreement are +0 at n = 1 and 3,
    on real and complex, distinct and repeated arguments."""
    grid = Grid(*grid_args)
    fs = random_real_functions(grid, rng_from_seed(5), 3)
    packet = gaussian_packet(grid, [4.0] * grid.d, max(1.0, 2 * grid.spacing))
    moving = _moving_packets(grid)
    for model in MODEL_FAMILY:
        for args in (fs[:1], fs, moving[:1], [fs[0]] * 3, [packet] * 3, [moving[0]] * 3,
                     moving[:3]):
            got = moment_numeric(model, args)
            parts = [p for z in (got.value, *got.stencils) for p in (z.real, z.imag)]
            assert all(p == 0 and math.copysign(1.0, p) == 1.0   # +0, never -0.0
                       for p in parts + [got.disagreement])
            assert not got.precision_warning


@pytest.mark.bits
@pytest.mark.parametrize("grid_args", _BIT_GRIDS, ids=_BIT_IDS)
def test_a_mirrored_sign_combination_has_the_gamma_bits_of_its_partner(grid_args):
    """The combination of -s, built term by term, is the exact negation of that of s
    (round-to-nearest is odd), so its transform is negated and its S2 and Gamma keep
    their bits."""
    grid = Grid(*grid_args)
    h0 = np.finfo(float).eps ** (1.0 / 8)
    for fs in (random_real_functions(grid, rng_from_seed(139), 4), _moving_packets(grid)):
        steps = [h0 / nu for nu in sobolev_norms(fs, 1.0).tolist()]
        for signs in itertools.product((1.0, -1.0), repeat=4):
            plus = minus = np.zeros(grid.shape, dtype=np.complex128)
            for s, h, f in zip(signs, steps, fs):
                plus, minus = plus + (s * h) * f.values, minus + (-s * h) * f.values
            assert np.array_equal(minus, -plus)   # signed zeros aside
            pair = [TestFunction(grid, plus), TestFunction(grid, minus)]
            for model in MODEL_FAMILY + [SPREAD_WEIGHTS]:
                rows = model.evaluate_many(pair, [2.0, 1.0, 0.5])
                assert _bits_equal(rows[0], rows[1])


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
    fs = random_real_functions(grid_2d, rng, 4)
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
        fs = random_real_functions(grid_2d, rng, n)
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
    g = random_real_functions(grid_2d, rng_from_seed(37), 1)[0]
    assert wrapped.evaluate_many([packet])[0] == leaf.evaluate_many([packet])[0]
    for n in (2, 4):
        assert moment_analytic(wrapped, [packet, g] * (n // 2)) == \
            moment_analytic(leaf, [packet, g] * (n // 2))


def test_envelope_rejects_bad_weights():
    leaf = QuasiFree(SpectralMeasure.delta(1.0))
    with pytest.raises(DomainError, match="sum"):
        envelope([(0.5, leaf), (0.4, leaf)])
    with pytest.raises(DomainError, match=">= 0"):
        envelope([(1.5, leaf), (-0.5, leaf)])
    with pytest.raises(DomainError, match="at least one"):
        envelope([])


def test_depth_bound_enforced():
    node = QuasiFree(SpectralMeasure.delta(1.0))
    for _ in range(MAX_TREE_DEPTH - 1):
        node = envelope([(1.0, node)])
    with pytest.raises(DomainError, match="depth"):
        envelope([(1.0, node)])


def test_validate_model_detects_corruption():
    leaf = QuasiFree(SpectralMeasure.delta(1.0))
    bad = Mixture(((0.5, leaf), (0.4, leaf)))  # raw constructor, no gate
    with pytest.raises(DomainError, match="sum"):
        validate_model(bad)
    validate_model(nested_mixture())


def test_min_mass_floor():
    assert min_mass_sq(nested_mixture()) == 1.0
    assert min_mass_sq(QuasiFree(SpectralMeasure.delta(2.5))) == 2.5


def test_atom_table_route_matches_the_per_leaf_walk():
    # oracles: gaussianize and min_mass_sq as walks over leaves() and atoms
    def walk_gaussianize(G):
        acc = {}
        for w, leaf in G.leaves():
            for m2, aw in leaf.rho.atoms:
                acc[m2] = acc.get(m2, 0.0) + w * aw
        return QuasiFree(SpectralMeasure(tuple(sorted(acc.items()))))

    def on_integer_masses(G):
        # leaves then share masses, so the order of each mass's sum matters
        if isinstance(G, QuasiFree):
            atoms = tuple((float(round(m2)), w) for m2, w in G.rho.atoms)
            return QuasiFree(SpectralMeasure(atoms))
        return Mixture(tuple((w, on_integer_masses(child)) for w, child in G.children))

    rng = rng_from_seed(41)
    trees = []
    for depth in (2, 3, 4):
        while sum(G.depth() == depth for G in trees) < 12:
            trees.append(random_model_tree(rng, max_depth=depth))
    trees += [on_integer_masses(G) for G in trees]
    # raw constructor: a zero-weight child (holding the smallest mass) and
    # weights summing to 1.4
    raw = Mixture(((0.0, QuasiFree(SpectralMeasure.delta(0.5))),
                   (0.9, QuasiFree(SpectralMeasure(((1.0, 0.3), (4.0, 0.7))))),
                   (0.5, nested_mixture())))
    for G in trees + [raw]:
        assert gaussianize(G) == walk_gaussianize(G)
        assert min_mass_sq(G) == min(leaf.rho.atoms[0][0] for _, leaf in G.leaves())
    assert gaussianize(raw).rho.atoms[0][0] == 1.0
    assert min_mass_sq(raw) == 0.5


# ---------------------------------------------------------------------------
# regularity and growth
# ---------------------------------------------------------------------------

def test_regularity_certificate_on_the_family(packet):
    for model in MODEL_FAMILY:
        cert = regularity_certificate(model, packet)
        assert cert.passed
        assert cert.bound.e == cert.bound.e_prime == 2.0
        assert 0 < cert.bound.constant <= 0.5 + 1e-12


def test_regularity_certificate_matches_the_per_z_loop(grid_2d, packet):
    # the oracle: one one-function evaluate_many call per point of the z grid
    rng = rng_from_seed(233)
    models = MODEL_FAMILY + [random_model_tree(rng, max_depth=3) for _ in range(4)]
    for model in models:
        for f in (packet, random_real_functions(grid_2d, rng, 1)[0]):
            nu2 = float(sobolev_norms([f], min_mass_sq(model))[0]) ** 2
            cs = []
            for z in default_z_grid():
                val = abs(model.evaluate_many([f], z)[0])
                cs.append(math.log(val) / (abs(z) * abs(z) * nu2) if val > 0 else -math.inf)
            best = max(cs)
            # the first z in grid order within the roundoff floor of the best C
            worst = default_z_grid()[[c >= best - ROUNDOFF_FLOOR * abs(best)
                                      for c in cs].index(True)]
            cert = regularity_certificate(model, f)
            assert cert.bound.constant == max(best, 1e-15)
            assert cert.worst_z == worst
            assert cert.passed == (max(best, 1e-15) <= REGULARITY_C_CEILING)


@pytest.mark.parametrize("m2", [1.0, 4.0])
def test_regularity_worst_z_is_not_a_roundoff_argmax(packet, m2):
    # every radius of the imaginary axis gives C up to rounding; the first
    # point in grid order within 64 eps |C| of the best is the radius-0.5 one
    cert = regularity_certificate(QuasiFree(SpectralMeasure.delta(m2)), packet)
    assert cert.worst_z == default_z_grid()[2]


def test_imaginary_axis_saturates_the_gaussian_bound(packet, free_leaf):
    s2 = free_two_point(packet, packet, 1.0).real
    for r in (0.5, 2.0, 4.0):
        val = abs(free_leaf.evaluate_many([packet], 1j * r)[0])
        assert val == pytest.approx(math.exp(0.5 * r * r * s2), rel=1e-12)


def test_mixture_constant_bounded_by_children(packet):
    g1 = QuasiFree(SpectralMeasure.delta(1.0))
    g2 = QuasiFree(SpectralMeasure.delta(4.0))
    mix = envelope([(0.5, g1), (0.5, g2)])
    c_children = max(regularity_certificate(g, packet).bound.constant
                     for g in (g1, g2))
    c_mix = regularity_certificate(mix, packet).bound.constant
    assert c_mix <= c_children + 1e-12


@pytest.mark.bits
def test_moment_growth_bound(grid_2d):
    for model in (QuasiFree(SpectralMeasure.delta(1.0)), two_mass_mixture(1.0, 4.0)):
        rep = moment_growth_check(model, grid_2d, n_max=8, trials=3, seed=5)
        assert rep.passed
        assert rep.k <= 4.0
        # odd orders contribute nothing
        odd = dict(rep.per_order)
        assert odd[1] == 0.0 and odd[3] == 0.0


# Proven bounds.  Let W_l = sum_m a_lm be leaf l's total atom weight.  Every atom mass
# is at or above the model's floor, so on arguments of unit floor norm |S2_l(f_i, f_j)|
# <= W_l (Cauchy-Schwarz), a leaf's hafnian is at most (n-1)!! W_l^(n/2), and |Gamma(z f)|
# <= exp(1/2 max_{w_l > 0} W_l |z|^2 |f|^2).  A kernel that overstates two-point values
# breaks them.

def _double_factorial(n):
    return math.prod(range(n, 0, -2))


def _pool_trees():
    pool = rng_from_seed(424242)   # the benchmark's model pool
    return [random_model_tree(pool, max_depth=3) for _ in range(48)]


@pytest.mark.parametrize("grid_args", [(2, 32, 0.25), (3, 16, 0.5)], ids=["2d", "3d"])
def test_growth_probes_stay_below_the_proven_bound(grid_args):
    grid = Grid(*grid_args)
    for model in _pool_trees():
        weights, _, atoms = model._atom_table
        totals = atoms.sum(axis=1)
        for seed in (0, 7):
            rep = moment_growth_check(model, grid, n_max=8, trials=4, seed=seed)
            for n, k in rep.per_order:
                if n % 2:
                    assert k == 0.0
                    continue
                bound = _double_factorial(n - 1) * float(weights @ totals ** (n // 2))
                assert k <= (bound / math.sqrt(math.factorial(n))) ** (1.0 / (n + 1))


@pytest.mark.parametrize("total", [1e-3, 1.0, 7.5])
def test_a_one_atom_floor_leaf_attains_the_proven_moment_bound(packet, total):
    leaf = QuasiFree(SpectralMeasure(((2.0, total),)))
    f = (1.0 / sobolev_norms([packet], min_mass_sq(leaf))[0]) * packet
    for n in range(2, MAX_MOMENT_ORDER + 1):
        bound = _double_factorial(n - 1) * total ** (n / 2) if n % 2 == 0 else 0.0
        assert abs(moment_analytic(leaf, [f] * n) - bound) <= 1e-12 * bound


def test_regularity_constant_stays_below_half_the_heaviest_live_leaf(grid_2d, packet):
    floor_leaves = [QuasiFree(SpectralMeasure(((2.0, w),))) for w in (1e-3, 1.0, 7.5)]
    # a leaf of weight 0 does not count, however heavy
    dead_heavy = envelope([(0.0, floor_leaves[2]), (1.0, floor_leaves[0])])
    models = _pool_trees() + floor_leaves + [dead_heavy]
    probes = [packet] + random_real_functions(grid_2d, rng_from_seed(71), 2)
    for model in models:
        weights, _, atoms = model._atom_table
        half_max = 0.5 * float(atoms.sum(axis=1)[weights > 0].max())
        for f in probes:
            # log|Gamma| is good to a few ulps of max(|log|Gamma||, 1), so C = log|Gamma| /
            # (|z|^2 nu^2) is good to ROUNDOFF_FLOOR of max(C, 1 / (|z|^2 nu^2)), |z| >= 1/2
            nu2 = sobolev_norms([f], min_mass_sq(model))[0] ** 2
            slack = ROUNDOFF_FLOOR * max(half_max, 1.0 / (abs(default_z_grid()[0]) ** 2 * nu2))
            constant = regularity_certificate(model, f).bound.constant
            assert constant <= half_max + slack
            if model in floor_leaves:   # a one-atom leaf attains it on the imaginary axis
                assert constant >= half_max - slack


def _growth_loop(G, grid, n_max, trials, seed):
    """moment_growth_check with per-trial rescaled probes: its oracle."""
    floor = min_mass_sq(G)
    rng = rng_from_seed(seed)
    rows = []
    for n in range(1, n_max + 1):
        k_n = 0.0
        for _ in range(trials):
            probes = random_real_functions(grid, rng, n)
            fs = [(1.0 / nu) * f for f, nu in zip(probes, sobolev_norms(probes, floor))]
            mag = abs(moment_analytic(G, fs))
            if mag > 0:
                k_n = max(k_n, (mag / math.sqrt(math.factorial(n))) ** (1.0 / (n + 1)))
        rows.append((n, k_n))
    return rows


@pytest.mark.bits
@pytest.mark.parametrize("model_idx", range(len(MODEL_FAMILY) + 2))
def test_moment_growth_matches_the_per_trial_loop(grid_2d, grid_3d, model_idx):
    rng = rng_from_seed(139)
    model = (MODEL_FAMILY + [random_model_tree(rng, max_depth=d) for d in (3, 4)])[model_idx]
    for grid, (n_max, trials, seed) in itertools.product(
            (grid_2d, grid_3d), ((8, 3, 5), (5, 2, 11), (2, 1, 0))):
        rep = moment_growth_check(model, grid, n_max=n_max, trials=trials, seed=seed)
        want = _growth_loop(model, grid, n_max, trials, seed)
        assert [n for n, _ in rep.per_order] == [n for n, _ in want]
        for (_, got_k), (_, want_k) in zip(rep.per_order, want):
            assert abs(got_k - want_k) <= 1e-12 * want_k
        worst = max(k for _, k in want)
        assert abs(rep.k - worst) <= 1e-12 * worst
        assert rep.passed == (worst <= GROWTH_K_CEILING)
        assert type(rep.k) is float and type(rep.passed) is bool


def _growth_drawing_every_order(G, grid, n_max, trials, seed):
    """moment_growth_check with every order's probes built, odd orders too:
    the oracle of its bits and draws."""
    floor = min_mass_sq(G)
    rng = rng_from_seed(seed)
    rows = []
    for n in range(1, n_max + 1):
        probes = random_real_functions(grid, rng, trials * n)
        mags = []
        if n % 2 == 0:
            grams = np.array([two_point_grams(probes[t:t + n], *G._atom_table[1:])
                              for t in range(0, trials * n, n)])
            norms = sobolev_norms(probes, floor).reshape(trials, 1, n)
            pairs = _pair_table(grams / (norms[..., None] * norms[..., None, :]))
            mags = np.abs(partitions.pair_exp(pairs)[..., -1] @ G._atom_table[0]).tolist()
        rows.append((n, max([(m / math.sqrt(math.factorial(n))) ** (1.0 / (n + 1))
                             for m in mags if m > 0], default=0.0)))
    return rows


@pytest.mark.bits
@pytest.mark.parametrize("model_idx", range(len(MODEL_FAMILY) + 2))
def test_growth_check_is_bit_identical_to_drawing_every_order(grid_2d, grid_3d, model_idx):
    rng = rng_from_seed(149)
    model = (MODEL_FAMILY + [random_model_tree(rng, max_depth=d) for d in (3, 4)])[model_idx]
    for grid, (n_max, trials, seed) in itertools.product(
            (grid_2d, grid_3d), ((8, 4, 0), (8, 3, 5), (5, 2, 11), (3, 1, 7))):
        rep = moment_growth_check(model, grid, n_max=n_max, trials=trials, seed=seed)
        want = _growth_drawing_every_order(model, grid, n_max, trials, seed)
        assert [n for n, _ in rep.per_order] == [n for n, _ in want]
        assert _bits_equal([k for _, k in rep.per_order], [k for _, k in want])
        assert _bits_equal(rep.k, max(k for _, k in want))


def _count_growth_work(monkeypatch):
    """Count packet_values calls (with their row counts), rfftn and fftn calls and
    TestFunction constructions from here on."""
    calls = {"packet_values": [], "rfftn": 0, "fftn": 0, "TestFunction": 0}
    build = fixtures.packet_values

    def counted_build(grid, centers, widths, momenta):
        calls["packet_values"].append(len(widths))
        return build(grid, centers, widths, momenta)

    def counted(name, call):
        def counting(*args, **kwargs):
            calls[name] += 1
            return call(*args, **kwargs)
        return counting

    monkeypatch.setattr(fixtures, "packet_values", counted_build)
    monkeypatch.setattr(np.fft, "rfftn", counted("rfftn", np.fft.rfftn))
    monkeypatch.setattr(np.fft, "fftn", counted("fftn", np.fft.fftn))
    monkeypatch.setattr(TestFunction, "__init__", counted("TestFunction", TestFunction.__init__))
    return calls


@pytest.mark.bits
def test_growth_check_builds_every_order_s_packets_on_a_cold_call(grid_2d, monkeypatch):
    _growth_probes.cache_clear()
    calls = _count_growth_work(monkeypatch)
    moment_growth_check(two_mass_mixture(1.0, 4.0), grid_2d, n_max=8, trials=4)
    # one stacked call per order: its 4 n first packets and up to 4 n second ones
    assert len(calls["packet_values"]) == 8
    for n, k in zip(range(1, 9), calls["packet_values"]):
        assert 4 * n <= k <= 8 * n


@pytest.mark.bits
def test_growth_check_takes_one_rfftn_per_even_order_and_no_test_function(grid_2d,
                                                                          monkeypatch):
    _growth_probes.cache_clear()
    calls = _count_growth_work(monkeypatch)
    moment_growth_check(two_mass_mixture(1.0, 4.0), grid_2d, n_max=8, trials=4)
    assert {key: calls[key] for key in ("rfftn", "fftn", "TestFunction")} == {
        "rfftn": 4, "fftn": 0, "TestFunction": 0}


@pytest.mark.bits
def test_growth_probes_are_drawn_once_per_key_and_read_only(grid_2d, grid_3d, monkeypatch):
    models = [two_mass_mixture(1.0, 4.0), nested_mixture()]
    keys = [(grid, seed) for seed in (0, 5) for grid in (grid_2d, grid_3d)]
    cold = {}
    for (grid, seed), G in itertools.product(keys, models):
        _growth_probes.cache_clear()
        cold[grid, seed, G] = moment_growth_check(G, grid, n_max=8, trials=4, seed=seed)
    _growth_probes.cache_clear()
    # the first round fills the cache, the next two read it with the other model
    for r in range(3):
        for i, (grid, seed) in enumerate(keys):
            G = models[(i + r) % 2]
            got = moment_growth_check(G, grid, n_max=8, trials=4, seed=seed)
            want = cold[grid, seed, G]
            assert _bits_equal(got.k, want.k)
            assert _bits_equal([k for _, k in got.per_order], [k for _, k in want.per_order])
    info = _growth_probes.cache_info()
    assert (info.misses, info.hits) == (4, 8)
    rows = _growth_probes(grid_2d, 8, 4, 5)
    assert [x is None for x in rows] == [n % 2 == 1 for n in range(1, 9)]
    for x in rows[1::2]:
        with pytest.raises(ValueError, match="read-only"):
            x[0, 0] = 1.0
    _growth_probes.cache_clear()
    calls = _count_growth_work(monkeypatch)
    moment_growth_check(models[0], grid_2d, n_max=8, trials=4)
    assert {**calls, "packet_values": len(calls["packet_values"])} == {
        "packet_values": 8, "rfftn": 4, "fftn": 0, "TestFunction": 0}
    calls.update(packet_values=[], rfftn=0)
    moment_growth_check(models[1], grid_2d, n_max=8, trials=4)
    assert {**calls, "packet_values": len(calls["packet_values"])} == dict.fromkeys(calls, 0)


# raw trees: weights summing to 1.4 and to 0.5
RAW_TREES = [Mixture(((0.5, nested_mixture()), (0.9, QuasiFree(SpectralMeasure.delta(3.0))))),
             Mixture(((0.5, QuasiFree(SpectralMeasure.delta(2.0))),))]


def _eight_leaf_trees():
    """The pool trees of at least 8 leaves: over a contiguous leaf axis np.sum's pairwise
    order differs there from a running sum."""
    return [tree for tree in _pool_trees() if len(tree.leaves()) >= 8]


def _written_out_mix(model, s2, z):
    """sum_l w_l exp(-z^2/2 s2_l) as the composition mix replaced: per complex c of z the
    coefficient -0.5 * c * c, np.exp, then np.cumsum(w * ., axis=-1)[..., -1]."""
    w = model._atom_table[0]
    columns = [np.cumsum(w * np.exp(-0.5 * c * c * s2), axis=-1)[..., -1]
               for c in map(complex, np.ravel(z))]
    if np.ndim(z) == 0:
        return columns[0]
    return np.stack(columns, axis=-1) if columns else np.zeros(s2.shape[:-1] + (0,), complex)


@pytest.mark.bits
@pytest.mark.parametrize("grid_args", _BIT_GRIDS, ids=_BIT_IDS)
def test_mix_is_the_written_out_running_sum(grid_args):
    """On the kernel's leaf values and on a C-ordered copy (a contiguous leaf axis), at
    scalar, 1-D and empty z; evaluate_many reads it."""
    grid = Grid(*grid_args)
    fs = random_real_functions(grid, rng_from_seed(971), 3) + [
        (0.5 - 2j) * random_real_functions(grid, rng_from_seed(972), 1)[0]]
    trees = RAW_TREES + _eight_leaf_trees()
    assert max(len(tree.leaves()) for tree in trees) >= 8
    for model in trees:
        s2 = model.leaf_two_point(fs, fs)
        for values in (s2, np.ascontiguousarray(s2)):
            for z in (1.0, 0.3 + 2j, [2.0, 1.0, 0.5], np.array([1j, -0.7]), [], np.array([])):
                got, want = model.mix(values, z), _written_out_mix(model, values, z)
                assert got.shape == want.shape and np.array_equal(got, want)
        assert model.evaluate_many(fs) == _written_out_mix(model, s2, 1.0).tolist()


def _stacked_route(table):
    """Moments, cumulants and scales by one pair_exp of [Q_l; Q_l - Qbar; -Qbar], its layers
    cut on every call, and one subset_log of [inner; -|M|]."""
    w, mean = table.weights, table.weights @ table.pairs
    exps = per_call_pair_exp(np.concatenate([table.pairs, table.pairs - mean, -mean[None]]))
    moments = w @ exps[:len(w)]
    inner = w @ exps[len(w):-1] + (1.0 - w.sum()) * exps[-1]
    logs = partitions.subset_log(np.stack([inner, -np.abs(moments)]))
    return moments, mean + logs[0], 0.0 - logs[1].real


def _separate_routes(table):
    """The routes the stacked calls replaced: one pair_exp per row group, the two-call
    cumulants and the two-table recursion of -log(1 - |M|)."""
    w, mean = table.weights, table.weights @ table.pairs
    moments = w @ partitions.pair_exp(table.pairs)
    inner = (w @ partitions.pair_exp(table.pairs - mean)
             + (1.0 - w.sum()) * partitions.pair_exp(-mean))
    return moments, mean + partitions.subset_log(inner), two_table_neglog1m(np.abs(moments))


def _table_values(table):
    return table.moments, table.cumulants, table.scales


@pytest.mark.bits
@pytest.mark.parametrize("grid_args", _BIT_GRIDS, ids=_BIT_IDS)
def test_warm_tables_are_the_stacked_call_bits(grid_args):
    """A table has the bits of the stacked route, and so does a second table of the same
    arguments, built on warm layer caches."""
    grid = Grid(*grid_args)
    fs = random_real_functions(grid, rng_from_seed(941), 7) + [
        (0.5 - 2j) * random_real_functions(grid, rng_from_seed(942), 1)[0]]
    _weight_table.cache_clear()
    for model in MODEL_FAMILY + RAW_TREES:
        for n in (4, 6, 8):
            table = MomentTable(model, fs[-n:])
            for got, want in zip(_table_values(table), _stacked_route(table)):
                assert _bits_equal(got, want)
            for got, want in zip(_table_values(MomentTable(model, fs[-n:])), _table_values(table)):
                assert _bits_equal(got, want)


@pytest.mark.parametrize("grid_args", _BIT_GRIDS, ids=_BIT_IDS)
def test_stacked_tables_agree_with_the_separate_routes(grid_args):
    """Stacking moves only last bits: every entry within 1e-14 of its scale, and the exact
    zeros (odd orders, Gaussian cumulants above order two) stay exact."""
    grid = Grid(*grid_args)
    real = random_real_functions(grid, rng_from_seed(961), 8)
    imag = random_real_functions(grid, rng_from_seed(962), 8)
    complex_fs = [f + 1j * g for f, g in zip(real, imag)]
    for model in MODEL_FAMILY + RAW_TREES + _pool_trees():
        for fs in (real, complex_fs):
            for n in range(1, MAX_MOMENT_ORDER + 1):
                table = MomentTable(model, fs[:n])
                old = _separate_routes(table)
                for got, want in zip(_table_values(table), old):
                    assert np.all(np.abs(got - want) <= 1e-14 * old[2]), (model, n)
                    assert np.array_equal(got == 0, want == 0)
                assert not np.signbit(table.scales).any()


@pytest.mark.parametrize("n", [1, 4, 8])
def test_a_table_makes_one_pair_exp_and_one_subset_log_call(packet, monkeypatch, n):
    calls = []
    for name in ("pair_exp", "subset_exp", "subset_log"):
        transform = getattr(partitions, name)
        monkeypatch.setattr(partitions, name,
                            lambda *a, name=name, transform=transform:
                            calls.append(name) or transform(*a))
    table = MomentTable(nested_mixture(), [packet] * n)
    table.moments, table.cumulants, table.scales
    assert sorted(calls) == ["pair_exp", "subset_log"]


LAPLACE_RHO = SpectralMeasure(((1.0, 0.6), (4.0, 0.4)))
# |table - closed form| over eps * k! theta^k (2k - 1)!! prod_i nu_i at order 2k: about
# 3.5x the worst measured, 14.2 (q = 8, order 2; 3.2 at q = 3, 1.9 at q = 4)
LAPLACE_BOUND = 50.0 * np.finfo(float).eps


def _laplace_args(grid):
    """Eight distinct packets, spread over the box, five with a nonzero momentum (complex);
    their Gram G = S2_rho(f_i, f_j) from the full-spectrum kernel, and nu_i =
    sqrt(S2_rho(conj f_i, f_i)), so |G_ij| <= nu_i nu_j."""
    width, step, rest = max(1.0, 2 * grid.spacing), grid.extent / 8, grid.d - 1
    fs = [gaussian_packet(grid, [(j + 0.5) * step] + [((3 * j) % 8 + 0.5) * step] * rest,
                          width, 2 * np.pi / grid.extent * np.array([j % 3 - 1] + [0] * rest))
          for j in range(8)]
    gram = np.array([[spectral_two_point(f, g, LAPLACE_RHO) for g in fs] for f in fs])
    nu = np.sqrt([spectral_two_point(TestFunction(grid, f.values.conj()), f, LAPLACE_RHO).real
                  for f in fs])
    return fs, gram, nu


@pytest.mark.parametrize("grid_args", _BIT_GRIDS, ids=_BIT_IDS)
def test_laplace_envelope_tables_are_the_hafnian_closed_forms(grid_args):
    """On the q-leaf Laplace envelope (q >= 3 integrates lambda^4 exactly) every entry of
    order 2k is S = k! theta^k haf(G) and K = (k - 1)! theta^k haf(G), and every odd entry is
    an exact zero; at q = 2 order 8 misses its closed form (E lambda^4 is not integrated)."""
    fs, gram, nu = _laplace_args(Grid(*grid_args))
    for theta, q in itertools.product((1.0, 0.25), (2, 3, 4, 8)):
        table = MomentTable(laplace_envelope(LAPLACE_RHO, theta, q), fs)
        moments, cumulants = table.moments, table.cumulants
        for mask in range(1, 1 << len(fs)):
            items = [i for i in range(len(fs)) if mask >> i & 1]
            k = len(items) // 2
            if len(items) % 2:
                assert moments[mask] == 0 and cumulants[mask] == 0
                continue
            haf = theta ** k * hafnian(gram, items)
            bound = LAPLACE_BOUND * math.factorial(k) * theta ** k * math.prod(
                range(1, 2 * k, 2)) * math.prod(nu[items].tolist())
            if q == 2 and k == 4:
                assert abs(moments[mask] - math.factorial(k) * haf) > 1e6 * bound
                continue
            assert abs(moments[mask] - math.factorial(k) * haf) <= bound
            assert abs(cumulants[mask] - math.factorial(k - 1) * haf) <= bound


def test_laplace_envelope_gamma_tends_to_its_closed_form():
    grid = Grid(2, 32, 0.25)
    f = random_real_functions(grid, rng_from_seed(971), 1)[0]
    s2, zs = spectral_two_point(f, f, LAPLACE_RHO).real, np.linspace(0.0, 3.0, 61)
    closed = 1.0 / (1.0 + zs ** 2 * s2 / 2.0)
    errors = [np.max(np.abs(laplace_envelope(LAPLACE_RHO, 1.0, q).evaluate_many([f], zs)[0]
                            - closed)) for q in (2, 3, 4, 6, 8, 12)]
    assert all(later < earlier for earlier, later in zip(errors, errors[1:])), errors


def _shared_args(grid):
    """Eight fresh arguments, the last two complex: fs[:n] is real for n <= 6."""
    return random_real_functions(grid, rng_from_seed(951), 6) + [
        (0.5 - 2j) * f for f in random_real_functions(grid, rng_from_seed(952), 2)]


def _fresh_reads(model, fs) -> list:
    """moment_analytic, cumulant and cumulant_scale as entries -1 of a fresh MomentTable."""
    table = MomentTable(model, list(fs))
    return [complex(table.moments[-1]), complex(table.cumulants[-1]), float(table.scales[-1])]


def _reads(model, fs) -> list:
    return [moment_analytic(model, fs), cumulant(model, fs), cumulant_scale(model, fs)]


def _same_reads(got, want) -> bool:
    return all(_bits_equal([g], [w]) for g, w in zip(got, want, strict=True))


def _count_table_builds(monkeypatch) -> list:
    """The argument count of every MomentTable built from now on; empties the memo."""
    builds, init = [], MomentTable.__init__

    def counted(self, G, fs):
        builds.append(len(fs))
        init(self, G, fs)
    monkeypatch.setattr(MomentTable, "__init__", counted)
    monkeypatch.setattr(functional, "_shared", (None, (), None))
    return builds


@pytest.mark.bits
@pytest.mark.parametrize("grid_args", _BIT_GRIDS, ids=_BIT_IDS)
def test_readers_from_the_shared_table_are_fresh_table_bits(grid_args, monkeypatch):
    """Each reader, cold (first on its key) and warm, has the bits of entry -1 of a
    fresh table: real and complex arguments, normalized and raw trees."""
    fs = _shared_args(Grid(*grid_args))
    for model in MODEL_FAMILY + RAW_TREES:
        for n in range(1, MAX_MOMENT_ORDER + 1):
            for args in (fs[:n], fs[-n:]):
                want = _fresh_reads(model, args)
                for k, read in enumerate((moment_analytic, cumulant, cumulant_scale)):
                    monkeypatch.setattr(functional, "_shared", (None, (), None))
                    cold, warm = read(model, args), read(model, list(args))
                    assert _bits_equal([cold], [want[k]]) and _bits_equal([warm], [want[k]])
                assert _same_reads(_reads(model, args), want)


@pytest.mark.bits
@pytest.mark.parametrize("grid_args", _BIT_GRIDS, ids=_BIT_IDS)
def test_shared_table_misses_on_other_objects(grid_args, monkeypatch):
    """The memo compares by `is`: an equal but distinct function or model, a
    reordered or a shortened fs each build their own table, with their own bits."""
    grid = Grid(*grid_args)
    fs = random_real_functions(grid, rng_from_seed(953), 3) + [
        (1.5 + 1j) * random_real_functions(grid, rng_from_seed(954), 1)[0]]
    model, twin = two_mass_mixture(1.0, 4.0), two_mass_mixture(1.0, 4.0)
    copy = TestFunction(grid, fs[0].values)
    assert twin == model and twin is not model
    assert np.array_equal(copy.values, fs[0].values) and copy is not fs[0]
    builds = _count_table_builds(monkeypatch)
    _reads(model, fs)
    _reads(model, tuple(fs))
    assert builds == [4]
    for G, args in ((model, [copy] + fs[1:]), (twin, fs), (model, fs[::-1]), (model, fs[:3])):
        want = _fresh_reads(G, args)
        _reads(model, fs)                          # the entry is (model, fs) again
        count = len(builds)
        assert _same_reads(_reads(G, args), want)
        assert len(builds) == count + 1            # one miss, then the other readers hit


@pytest.mark.bits
@pytest.mark.parametrize("grid_args", _BIT_GRIDS, ids=_BIT_IDS)
def test_shared_table_alternating_models_keep_their_own_bits(grid_args, monkeypatch):
    fs = _shared_args(Grid(*grid_args))[2:]
    models = [MODEL_FAMILY[3], RAW_TREES[0]]
    want = [_fresh_reads(model, fs) for model in models]
    monkeypatch.setattr(functional, "_shared", (None, (), None))
    for _ in range(3):
        for model, bits in zip(models, want):
            assert _same_reads(_reads(model, fs), bits)


@pytest.mark.bits
@pytest.mark.parametrize("grid_args", _BIT_GRIDS, ids=_BIT_IDS)
def test_shared_table_pins_one_table(grid_args, monkeypatch):
    fs = _shared_args(Grid(*grid_args))[:4]
    model = two_mass_mixture(1.0, 4.0)
    monkeypatch.setattr(functional, "_shared", (None, (), None))
    ref = weakref.ref(functional._shared_table(model, fs))
    gc.collect()
    assert ref() is not None and cumulant(model, fs) == complex(ref().cumulants[-1])
    cumulant(model, fs[:2])
    gc.collect()
    assert ref() is None


@pytest.mark.bits
@pytest.mark.parametrize("grid_args", _BIT_GRIDS, ids=_BIT_IDS)
def test_shared_table_keeps_no_failed_build(grid_args, monkeypatch):
    grid = Grid(*grid_args)
    fs = _shared_args(grid)
    other = random_real_functions(Grid(2, 16, 0.5), rng_from_seed(955), 1)[0]
    model = two_mass_mixture(1.0, 4.0)
    builds = _count_table_builds(monkeypatch)
    want = _reads(model, fs[:4])
    entry = functional._shared
    for bad, message in ((fs[:3] + [other], "one grid"), (fs + fs[:1], "outside 1..8")):
        for read in (moment_analytic, cumulant, cumulant_scale):
            with pytest.raises(DomainError, match=message):
                read(model, bad)
        assert functional._shared is entry
    count = len(builds)
    assert _same_reads(_reads(model, fs[:4]), want) and len(builds) == count


@pytest.mark.bits
@pytest.mark.parametrize("grid_args", _BIT_GRIDS, ids=_BIT_IDS)
def test_readers_build_one_shared_table_per_order(grid_args, monkeypatch):
    """The three readers at n = 1..8 on fresh functions, read as the cumulant_orders
    op reads them, build 8 tables and 8 Grams; one table per reader call built 20."""
    fs = _shared_args(Grid(*grid_args))
    builds = _count_table_builds(monkeypatch)
    grams, row_grams = [], propagator.row_grams
    monkeypatch.setattr(propagator, "row_grams", lambda *a: grams.append(1) or row_grams(*a))
    for n in range(1, MAX_MOMENT_ORDER + 1):
        _reads(MODEL_FAMILY[3], fs[:n])
    assert builds == list(range(1, MAX_MOMENT_ORDER + 1)) and len(grams) == 8


@pytest.mark.bits
@pytest.mark.parametrize("kwargs", [{"n_max": 0}, {"n_max": -2}, {"n_max": 9},
                                    {"trials": 0}, {"trials": -1}, {"trials": 2.5},
                                    {"n_max": 2.0}, {"trials": GROWTH_TRIALS_CAP + 1},
                                    {"seed": 2.5}, {"seed": True}, {"seed": -1},
                                    {"seed": 1 << 64}, {"seed": [1]}])
def test_moment_growth_rejects_an_empty_or_oversized_probe_set(grid_2d, kwargs):
    (key, value), = kwargs.items()
    before = _growth_probes.cache_info()
    with pytest.raises(DomainError, match=re.escape(f"{key}={value} ")):
        moment_growth_check(two_mass_mixture(1.0, 4.0), grid_2d, **kwargs)
    assert _growth_probes.cache_info() == before   # refused before the cache is read


@pytest.mark.bits
def test_moment_growth_takes_every_64_bit_seed(grid_2d):
    model = two_mass_mixture(1.0, 4.0)
    for seed in (0, (1 << 64) - 1):
        report = moment_growth_check(model, grid_2d, n_max=2, trials=1, seed=seed)
        assert moment_growth_check(model, grid_2d, n_max=2, trials=1,
                                   seed=np.uint64(seed)) == report


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

    norms = [sobolev_norms([packet], min_mass_sq(mixture_14))[0]] * 4

    def stencil(scale):
        acc = 0.0
        for signs in itertools.product((1.0, -1.0), repeat=4):
            combo = TestFunction.zeros(packet.grid)
            for s, nu in zip(signs, norms):
                combo = combo + (s * scale / nu) * packet
            acc += float(np.prod(signs)) * math.log(
                mixture_14.evaluate_many([combo])[0].real)
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

def leaf_joint_cumulant(weights, xs):
    """Joint cumulant of random variables over the leaves, a leaf drawn with
    its path weight; xs[j][l] is the j-th variable on leaf l."""
    total = 0j
    for blocks in insertion_partitions(len(xs)):
        k = len(blocks)
        mixed = [weights @ np.prod([xs[j - 1] for j in block], axis=0) for block in blocks]
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
    for blocks in insertion_partitions(len(fs)):
        prod = math.factorial(len(blocks) - 1)
        for block in blocks:
            if block not in moments:
                moments[block] = abs(moment_analytic(model, [fs[i - 1] for i in block]))
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


def _contour_moment(G, fs):
    """S_n(f_1..f_n) from Gamma alone, by polarization over the sign vectors
    eps with eps_1 = +1:

        S_n = i^-n / 2^(n-1) sum_eps (prod eps) [t^n] Gamma(t g_eps),

    g_eps = sum eps_i f_i.  Each Taylor coefficient is the trapezoid rule on
    |t| = r = sqrt(n / max_l |S2_l(g, g)|) with 4n + 32 nodes, one
    evaluate_many call per g; a zero g contributes 0."""
    n = len(fs)
    nodes = np.exp(2j * np.pi * np.arange(4 * n + 32) / (4 * n + 32))
    acc = 0j
    for signs in itertools.product((1.0, -1.0), repeat=n - 1):
        eps = (1.0,) + signs
        g = TestFunction(fs[0].grid, sum(e * f.values for e, f in zip(eps, fs)))
        top = np.abs(G.leaf_two_point([g], [g])).max()
        if top > 0.0:
            t = math.sqrt(n / top) * nodes
            acc += math.prod(eps) * np.mean(G.evaluate_many([g], t)[0] / t ** n)
    return acc * 1j ** -n / 2 ** (n - 1)


def _contour_cases():
    pool_rng = rng_from_seed(424242)
    trees = [tree for tree in (random_model_tree(pool_rng, max_depth=3) for _ in range(24))
             if len(tree.leaves()) > 1]
    grids = {"1d": Grid(1, 64, 0.5), "2d": Grid(2, 32, 0.25), "3d": Grid(3, 16, 0.5)}
    cases = [("1d", "real", False), ("1d", "real", True), ("1d", "packet", False),
             ("1d", "packet", True), ("2d", "real", True), ("2d", "packet", False),
             ("3d", "real", False), ("3d", "packet", True)]
    return [pytest.param(trees[i], grids[dim], kind, equal,
                         id=f"{dim}-{kind}-{'equal' if equal else 'distinct'}")
            for i, (dim, kind, equal) in enumerate(cases)]


@pytest.mark.parametrize("tree,grid,kind,equal", _contour_cases())
def test_moments_match_the_contour_integral_of_gamma(tree, grid, kind, equal):
    # the oracle uses Gamma alone, not the Wick sums of the leaf Grams
    rng = rng_from_seed(239)
    if kind == "real":
        fs = random_real_functions(grid, rng, 8)
    else:
        fs = [gaussian_packet(grid, *_packet_draw(grid, rng)) for _ in range(8)]
    for n in range(2, MAX_MOMENT_ORDER + 1):
        args = [fs[0]] * n if equal else fs[:n]
        table = MomentTable(tree, args)
        # odd moments and their scales are exact zeros: the norms set the scale
        norms = [math.sqrt(np.abs(tree.leaf_two_point([f], [f])).max()) for f in args]
        scale = max(table.scales[-1], math.prod(norms))
        assert abs(_contour_moment(tree, args) - table.moments[-1]) <= 1e-11 * scale


@pytest.mark.bits
def test_batched_grams_match_the_two_point_kernel():
    # spectral_two_point (divide, then row-sum, one pair) is the oracle for
    # the per-mass matmul
    model, fs = conditioning_cases()[4].values
    weights, grams = model._atom_table[0], two_point_grams(fs, *model._atom_table[1:])
    for l, (w, leaf) in enumerate(model.leaves()):
        assert weights[l] == w
        for i, f in enumerate(fs):
            for j, g in enumerate(fs):
                want = spectral_two_point(f, g, leaf.rho)
                assert grams[l, i, j] == pytest.approx(want, rel=1e-13, abs=1e-16)


def test_tables_that_leave_float64_raise_naming_the_table_and_order():
    f = gaussian_packet(Grid(2, 16, 0.5), [4.0, 4.0], 1.0)
    heavy = envelope([(0.5, QuasiFree(SpectralMeasure.delta(1.0))),
                      (0.5, QuasiFree(SpectralMeasure(((1e12, 1e300),))))])
    for name in ("moments", "cumulants"):
        with pytest.raises(DomainError, match=f"^{name} of order 4 leave float64"):
            getattr(MomentTable(heavy, [f] * 4), name)
    # one leaf with S2(f, f) = 3e76: the order-8 moment 105 S2^4 is finite, its scale is not
    weight = 3e76 / free_two_point(f, f, 1.0).real
    table = MomentTable(QuasiFree(SpectralMeasure(((1.0, weight),))), [f] * 8)
    assert np.isfinite(table.moments).all()
    with pytest.raises(DomainError, match="^scales of order 8 leave float64"):
        table.scales


def test_scales_of_moments_that_leave_float64_name_the_moments():
    # the scales row of the stacked subset_log overflows with the moments; read first,
    # the scales still raise the moments' message, and the cumulants stay their own
    f = gaussian_packet(Grid(2, 16, 0.5), [4.0, 4.0], 1.0)
    heavy = envelope([(0.5, QuasiFree(SpectralMeasure.delta(1.0))),
                      (0.5, QuasiFree(SpectralMeasure(((1e12, 1e300),))))])
    table = MomentTable(heavy, [f] * 4)
    with pytest.raises(DomainError, match="^moments of order 4 leave float64"):
        table.scales
    with pytest.raises(DomainError, match="^cumulants of order 4 leave float64"):
        table.cumulants


@pytest.mark.parametrize("route", [moment_analytic, cumulant, cumulant_scale])
def test_functions_on_two_grids_are_rejected(route, packet):
    other = gaussian_packet(CONDITIONING_GRID, [4.0, 4.0], 1.0)
    with pytest.raises(DomainError, match="one grid"):
        route(two_mass_mixture(1.0, 4.0), [packet, other, packet, packet])
