"""Experiment runners: spec validation, oracle agreement, report shape."""

import math

import pytest

from schwingerlab import (DomainError, QuasiFree, SchemaError, SpectralMeasure,
                          cumulant, envelope, free_two_point, gaussian_packet,
                          moment_analytic)
from schwingerlab.experiments import (ExperimentSpec, run_experiment,
                                      run_iteration, run_refinement_study,
                                      run_two_mass_fourth_cumulant,
                                      two_mass_mixture)
from schwingerlab.lattice import Grid

GRID_DOC = {"d": 2, "n_per_axis": 32, "spacing": 0.25}
PACKET_DOC = {"center": [4.0, 4.0], "width": 1.0}


def two_mass_spec(**params):
    base = {"masses_sq": [1.0, 4.0], "packet": PACKET_DOC}
    base.update(params)
    return ExperimentSpec.from_dict({
        "experiment_id": "two_mass_fourth_cumulant",
        "grid": GRID_DOC, "params": base, "seed": 11,
    })


# ---------------------------------------------------------------------------
# spec handling
# ---------------------------------------------------------------------------

def test_spec_rejects_unknown_ids_and_keys():
    with pytest.raises(SchemaError, match="experiment_id"):
        ExperimentSpec.from_dict({"experiment_id": "nope", "grid": GRID_DOC,
                                  "params": {}})
    with pytest.raises(SchemaError, match="surprise"):
        ExperimentSpec.from_dict({"experiment_id": "iteration", "grid": GRID_DOC,
                                  "params": {}, "surprise": 1})


def test_spec_digest_is_stable_and_sensitive():
    a = two_mass_spec()
    b = two_mass_spec()
    c = two_mass_spec(weight=0.25)
    assert a.digest == b.digest
    assert a.digest != c.digest
    # a grid is hashed as the Grid it parses to: 2.0 and 2 are one grid
    floats = ExperimentSpec.from_dict({**a.as_dict(), "grid": {
        "d": 2.0, "n_per_axis": 32.0, "spacing": GRID_DOC["spacing"]}})
    ints = ExperimentSpec.from_dict({**a.as_dict(), "grid": {
        "d": 2, "n_per_axis": 32, "spacing": GRID_DOC["spacing"]}})
    assert floats.digest == ints.digest == a.digest


# ---------------------------------------------------------------------------
# two-mass connected 4-point
# ---------------------------------------------------------------------------

def test_two_mass_routes_agree():
    rep = run_two_mass_fourth_cumulant(two_mass_spec())
    assert rep.passed
    a, b = rep.values["cumulant_transform"], rep.values["closed_form"]
    assert abs(a - b) <= 1e-10 * abs(b)
    assert b > 0


def test_two_mass_monte_carlo_band():
    rep = run_two_mass_fourth_cumulant(two_mass_spec(mc_samples=3000))
    assert rep.passed
    assert rep.values["monte_carlo_sigmas"] <= 3.0


def test_equal_masses_give_zero():
    rep = run_two_mass_fourth_cumulant(two_mass_spec(masses_sq=[2.0, 2.0]))
    assert rep.passed
    assert abs(rep.values["cumulant_transform"]) <= \
        1e-12 * rep.values["cumulant_scale"]


def test_general_weight_closed_form():
    # 3 w (1-w) dS2^2 against the cumulant transform, for several weights
    grid = Grid(**GRID_DOC)
    f = gaussian_packet(grid, PACKET_DOC["center"], PACKET_DOC["width"])
    ds2 = (free_two_point(f, f, 1.0) - free_two_point(f, f, 4.0)).real
    for w in (0.2, 0.5, 0.9):
        rep = run_two_mass_fourth_cumulant(two_mass_spec(weight=w))
        assert rep.passed
        want = 3.0 * w * (1.0 - w) * ds2 ** 2
        assert rep.values["cumulant_transform"] == pytest.approx(want, rel=1e-10)
        got = cumulant(two_mass_mixture(1.0, 4.0, w), [f] * 4).real
        assert got == pytest.approx(want, rel=1e-10)


def test_two_mass_rejects_sub_floor_masses():
    with pytest.raises(DomainError, match="floor"):
        run_two_mass_fourth_cumulant(two_mass_spec(masses_sq=[1e-12, 4.0]))


# ---------------------------------------------------------------------------
# iteration
# ---------------------------------------------------------------------------

def iteration_spec(families, lam=(0.5, 0.5)):
    return ExperimentSpec.from_dict({
        "experiment_id": "iteration",
        "grid": GRID_DOC,
        "params": {"families": families, "lambda_weights": list(lam),
                   "packet": PACKET_DOC},
    })


def test_iteration_with_point_mass_families_reduces_to_two_mass():
    rep = run_iteration(iteration_spec([[[1.0, 1.0]], [[4.0, 1.0]]]))
    assert rep.passed
    assert any("point masses" in n for n in rep.notes)
    # the connected 4-point equals the two-mass closed form
    grid = Grid(**GRID_DOC)
    f = gaussian_packet(grid, PACKET_DOC["center"], PACKET_DOC["width"])
    ds2 = (free_two_point(f, f, 1.0) - free_two_point(f, f, 4.0)).real
    assert rep.values["connected_fourth"] == pytest.approx(
        0.75 * ds2 ** 2, rel=1e-10)
    # with point masses the two construction orders coincide
    assert abs(rep.values["fourth_moment_difference"]) <= 1e-12


def test_iteration_two_point_identity_and_s4_separation():
    families = [[[1.0, 0.5], [4.0, 0.5]], [[4.0, 0.5], [9.0, 0.5]]]
    rep = run_iteration(iteration_spec(families))
    assert rep.passed
    s2m, s2c = rep.values["two_point_iterated"], rep.values["two_point_convolved"]
    assert abs(s2m - s2c) <= 1e-12 * abs(s2c)
    # multi-atom families force the one-step and iterated 4-points apart
    assert abs(rep.values["fourth_moment_difference"]) > \
        1e-6 * rep.values["cumulant_scale"]
    assert abs(rep.values["connected_fourth"]) > \
        1e-6 * rep.values["cumulant_scale"]
    assert rep.values["connected_fourth"] == pytest.approx(
        rep.values["connected_fourth_closed_form"], rel=1e-10)


def test_iteration_closed_form_is_the_lambda_variance():
    families = [[[1.0, 0.5], [4.0, 0.5]], [[4.0, 0.5], [9.0, 0.5]]]
    lam = (0.3, 0.7)
    rep = run_iteration(iteration_spec(families, lam))
    grid = Grid(**GRID_DOC)
    f = gaussian_packet(grid, PACKET_DOC["center"], PACKET_DOC["width"])
    s = rep.values["family_two_points"]
    mean = lam[0] * s[0] + lam[1] * s[1]
    var = lam[0] * (s[0] - mean) ** 2 + lam[1] * (s[1] - mean) ** 2
    assert rep.values["connected_fourth"] == pytest.approx(3 * var, rel=1e-10)


def test_iteration_flags_degenerate_family():
    rep = run_iteration(iteration_spec([[[2.0, 1.0]], [[2.0, 1.0]]]))
    assert rep.passed
    assert any("expected zero" in n for n in rep.notes)
    assert abs(rep.values["connected_fourth"]) <= 1e-12


def test_iteration_matches_direct_tree_construction():
    families = [[[1.0, 0.5], [4.0, 0.5]], [[4.0, 0.5], [9.0, 0.5]]]
    rep = run_iteration(iteration_spec(families))
    grid = Grid(**GRID_DOC)
    f = gaussian_packet(grid, PACKET_DOC["center"], PACKET_DOC["width"])
    direct = envelope([
        (0.5, QuasiFree(SpectralMeasure.from_pairs(families[0]))),
        (0.5, QuasiFree(SpectralMeasure.from_pairs(families[1]))),
    ])
    assert rep.values["fourth_moment_iterated"] == pytest.approx(
        moment_analytic(direct, [f] * 4).real, rel=1e-13)


def test_iteration_needs_two_families():
    with pytest.raises(SchemaError, match="two families"):
        run_iteration(iteration_spec([[[1.0, 1.0]]], lam=(1.0,)))


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------

def refinement_spec(levels, d=1, packet=None, masses=(1.0,)):
    extent = 16.0
    packet = packet or {"center": [8.0] * d, "width": 2.0}
    return ExperimentSpec.from_dict({
        "experiment_id": "refinement",
        "grid": {"d": d, "n_per_axis": levels[0], "spacing": extent / levels[0]},
        "params": {"d": d, "extent": extent, "levels": list(levels),
                   "masses_sq": list(masses), "packet": packet},
    })


def test_refinement_converges_at_second_order_1d():
    rep = run_refinement_study(refinement_spec([16, 32, 64]))
    assert rep.passed
    diffs = rep.values["two_point_diffs"]
    assert all(b < a for a, b in zip(diffs, diffs[1:]))
    assert rep.values["fitted_order"] >= 1.8


def test_refinement_rotation_defect_shrinks_2d():
    packet = {"center": [8.0, 8.0], "width": 2.0,
              "momentum": [math.pi / 4, math.pi / 8]}
    rep = run_refinement_study(refinement_spec([16, 32, 64], d=2, packet=packet,
                                               masses=(1.0, 4.0)))
    assert rep.passed
    defects = rep.values["rotation_defects"]
    assert len(defects) == 3
    assert all(b < a for a, b in zip(defects, defects[1:]))


def test_refinement_needs_three_levels():
    with pytest.raises(SchemaError, match="3 grid levels"):
        run_refinement_study(refinement_spec([16, 32]))


def test_refinement_levels_must_double():
    with pytest.raises(SchemaError, match="double"):
        run_refinement_study(refinement_spec([16, 32, 48]))


def test_run_experiment_dispatches():
    rep = run_experiment(two_mass_spec())
    assert rep.experiment_id == "two_mass_fourth_cumulant"


def test_unknown_tolerance_keys_rejected():
    spec_doc = {
        "experiment_id": "two_mass_fourth_cumulant",
        "grid": GRID_DOC,
        "params": {"masses_sq": [1.0, 4.0], "packet": PACKET_DOC},
        "tolerances": {"closed_form_relly": 1e-10},
    }
    with pytest.raises(SchemaError, match="closed_form_relly"):
        run_experiment(ExperimentSpec.from_dict(spec_doc))
