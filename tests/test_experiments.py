"""Experiment runners: spec validation, oracle agreement, report shape."""

import json
import math

import pytest

from schwingerlab import (DomainError, QuasiFree, SchemaError, SpectralMeasure,
                          cumulant, envelope, free_two_point, gaussian_packet,
                          moment_analytic, spectral_two_point)
from schwingerlab.experiments import (ExperimentSpec, run_experiment,
                                      run_iteration, run_refinement_study,
                                      run_two_mass_fourth_cumulant,
                                      two_mass_mixture)
from schwingerlab.functional import ROUNDOFF_FLOOR
from schwingerlab.lattice import Grid

from oracles import spectral_rotation_defects

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
    for families, lam in [([[[2.0, 1.0]], [[2.0, 1.0]]], (0.5, 0.5)),
                          # the weight-0 family drops out
                          ([[[1.0, 1.0]], [[4.0, 1.0]]], (1.0, 0.0))]:
        rep = run_iteration(iteration_spec(families, lam))
        assert rep.passed, lam
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


@pytest.mark.bits
def test_closed_form_inputs_are_the_one_measure_two_point_bits():
    # the runners read S2 off the leaves of the models they build: each is the bits of its
    # own one-measure call, with masses in either order, equal, far apart or of weight 0
    grid = Grid(**GRID_DOC)
    f = gaussian_packet(grid, PACKET_DOC["center"], PACKET_DOC["width"])
    for masses, w in (([1.0, 4.0], 0.5), ([4.0, 1.0], 0.3), ([2.0, 2.0], 0.5),
                      ([1.0, 1e150], 0.0), ([1e150, 1.0], 1.0)):
        rep = run_two_mass_fourth_cumulant(two_mass_spec(masses_sq=masses, weight=w))
        want = (free_two_point(f, f, masses[0]) - free_two_point(f, f, masses[1])).real
        assert rep.values["delta_s2"].hex() == want.hex()
    for families, lam in (([[[1.0, 0.5], [4.0, 0.5]], [[4.0, 0.5], [9.0, 0.5]]], (0.3, 0.7)),
                          ([[[9.0, 1.0]], [[1.0, 0.25], [4.0, 0.75]], [[2.0, 1.0]]],
                           (0.2, 0.0, 0.8))):
        rep = run_iteration(iteration_spec(families, lam))
        measures = [SpectralMeasure.from_pairs(pairs) for pairs in families]
        conv = SpectralMeasure(tuple((m2, lw * pw) for lw, rho in zip(lam, measures)
                                     for m2, pw in rho.atoms))
        assert ([s.hex() for s in rep.values["family_two_points"]]
                == [spectral_two_point(f, f, rho).real.hex() for rho in measures])
        assert rep.values["two_point_convolved"].hex() == spectral_two_point(f, f, conv).real.hex()


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


@pytest.mark.parametrize("d", [1, 2])
def test_refinement_converges_at_second_order(d):
    # in d=2 the default packet sits at the box centre with zero momentum:
    # the rotation maps it onto itself and every rotation defect is 0
    rep = run_refinement_study(refinement_spec([16, 32, 64], d=d))
    assert rep.passed
    if d == 2:
        assert rep.values["rotation_defects"] == [0.0, 0.0, 0.0]
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


# 2-D refinement packets with and without momentum, over masses and weights with a
# duplicate mass and a zero weight
_ROTATION_PACKETS = [{"center": [8.0, 8.0], "width": 2.0},
                     {"center": [8.0, 8.0], "width": 2.0, "momentum": [math.pi / 4, math.pi / 8]},
                     {"center": [6.0, 9.5], "width": 2.25},
                     {"center": [5.0, 7.0], "width": 2.5, "momentum": [0.3, -0.7]},
                     {"center": [9.0, 4.0], "width": 2.0, "momentum": [0.0, math.pi / 2]},
                     {"center": [7.25, 8.5], "width": 3.0, "momentum": [-1.1, 0.2]},
                     {"center": [10.0, 10.0], "width": 2.0, "momentum": [0.5, 0.5]}]
_ROTATION_MASSES = [([1.0, 4.0], None), ([2.0, 2.0, 9.0], [0.25, 0.5, 0.25]),
                    ([1.0, 3.0, 0.5], [0.0, 0.7, 0.3])]


@pytest.mark.bits
@pytest.mark.parametrize("masses, weights", _ROTATION_MASSES, ids=["two", "duplicate", "zero"])
@pytest.mark.parametrize("packet", _ROTATION_PACKETS, ids=[f"p{k}" for k in range(7)])
def test_rotation_defects_are_the_spectral_route_bits(packet, masses, weights):
    params = {"d": 2, "extent": 16.0, "levels": [16, 32, 64], "masses_sq": masses,
              "packet": packet, **({"weights": weights} if weights else {})}
    spec = ExperimentSpec.from_dict({"experiment_id": "refinement",
                                     "grid": {"d": 2, "n_per_axis": 16, "spacing": 1.0},
                                     "params": params})
    defects = run_refinement_study(spec).values["rotation_defects"]
    assert all(type(x) is float for x in defects)   # a numpy float would change the text
    assert defects == spectral_rotation_defects(spec)


# packets of the 1-D reproductions and of the 2-D CI refinement spec
_PACKET_1D = {"center": [4.0], "width": 1.0}
_PACKET_2D = {"center": [8.0, 8.0], "width": 2.0,
              "momentum": [math.pi / 4, math.pi / 8]}


def _roundoff_refinement(d, masses):
    extent, packet = (8.0, _PACKET_1D) if d == 1 else (16.0, _PACKET_2D)
    return ExperimentSpec.from_dict({
        "experiment_id": "refinement",
        "grid": {"d": d, "n_per_axis": 16, "spacing": extent / 16},
        "params": {"d": d, "extent": extent, "levels": [16, 32, 64],
                   "masses_sq": list(masses), "packet": packet},
    })


@pytest.mark.parametrize("d, masses", [(1, [1e150, 1e150]), (1, [1e300, 1e300]),
                                       (2, [1e300, 1e300]), (2, [1e12, 1e12])],
                         ids=["1d_1e150", "1d_1e300", "2d_1e300", "2d_1e12"])
def test_refinement_data_converged_to_roundoff_passes_with_no_order(d, masses):
    # exact zeros (1e150), subnormal differences and defects (1e300) and a last
    # difference below roundoff (1e12) have converged: they pass, and the order is None
    rep = run_refinement_study(_roundoff_refinement(d, masses))
    assert rep.passed and rep.notes == ()
    assert rep.values["fitted_order"] is None
    floor = ROUNDOFF_FLOOR * max(map(abs, rep.values["two_point"]))
    diffs = rep.values["two_point_diffs"]
    assert diffs == [abs(b - a) for a, b in zip(rep.values["two_point"],
                                                rep.values["two_point"][1:])]
    assert min(diffs) <= floor
    assert all(x <= floor for x in rep.values["rotation_defects"][-1:])
    # the reported values are the raw ones, not the zeros the rule reads
    if masses[0] == 1e300:
        assert all(0.0 < x < 1e-300 for x in diffs[1:] + rep.values["rotation_defects"])
    json.dumps(rep.as_dict(), allow_nan=False)


def test_refinement_differences_above_roundoff_that_stall_fail(monkeypatch):
    # the roundoff rule does not excuse a difference that stops shrinking
    import schwingerlab.experiments as experiments
    spec = refinement_spec([16, 32, 64])
    rep = run_refinement_study(spec)
    assert rep.passed and rep.values["fitted_order"] >= 1.8
    levels = iter(range(3))

    class Stalled(experiments.MomentTable):
        @property
        def moments(self):
            moments = super().moments.copy()
            if next(levels) == 2:   # the finest level moves back by twice the first difference
                moments[0b11] += 2 * rep.values["two_point_diffs"][0]
            return moments

    monkeypatch.setattr(experiments, "MomentTable", Stalled)
    stalled = run_refinement_study(spec)
    assert not stalled.passed
    assert stalled.notes == ("no convergence trend in the two-point data",)


def test_refinement_needs_three_levels():
    with pytest.raises(SchemaError, match="3 grid levels"):
        run_refinement_study(refinement_spec([16, 32]))


def test_refinement_levels_must_double():
    with pytest.raises(SchemaError, match="double"):
        run_refinement_study(refinement_spec([16, 32, 48]))


def test_run_experiment_dispatches():
    rep = run_experiment(two_mass_spec())
    assert rep.experiment_id == "two_mass_fourth_cumulant"


_VALID_PARAMS = {
    "two_mass_fourth_cumulant": {"masses_sq": [1.0, 4.0], "packet": PACKET_DOC},
    "iteration": {"families": [[[1.0, 1.0]], [[4.0, 1.0]]],
                  "lambda_weights": [0.5, 0.5], "packet": PACKET_DOC},
    "refinement": {"d": 2, "extent": 8.0, "levels": [32, 64, 128],
                   "masses_sq": [1.0], "packet": PACKET_DOC},
}


@pytest.mark.parametrize("section", ["params", "tolerances"])
@pytest.mark.parametrize("exp_id", list(_VALID_PARAMS))
def test_spec_load_rejects_an_unknown_key_of_each_family(exp_id, section, monkeypatch):
    # checked against the family table when the spec is loaded: no runner runs
    import schwingerlab.experiments as experiments
    for name in ("run_two_mass_fourth_cumulant", "run_iteration",
                 "run_refinement_study"):
        monkeypatch.setattr(experiments, name, None)
    doc = {"experiment_id": exp_id, "grid": GRID_DOC,
           "params": dict(_VALID_PARAMS[exp_id])}
    ExperimentSpec.from_dict(doc)
    doc.setdefault(section, {})["bogus_key"] = 1.0
    with pytest.raises(SchemaError, match="bogus_key"):
        ExperimentSpec.from_dict(doc)


def test_resolved_tolerances_are_the_family_defaults():
    defaults = {
        "two_mass_fourth_cumulant": {"closed_form_rel": 1e-10,
                                     "degenerate_scale": 1e-12},
        "iteration": {"two_point_rel": 1e-12, "closed_form_rel": 1e-10,
                      "nonzero_scale": 1e-6},
        "refinement": {"min_order": 1.8},
    }
    for exp_id, want in defaults.items():
        doc = {"experiment_id": exp_id, "grid": GRID_DOC, "params": _VALID_PARAMS[exp_id]}
        assert ExperimentSpec.from_dict(doc).resolved_tolerances() == want
    # an override is laid over the defaults; the digest hashes only the override
    spec = two_mass_spec()
    moved = ExperimentSpec.from_dict({**spec.as_dict(),
                                      "tolerances": {"closed_form_rel": 1}})
    assert moved.resolved_tolerances() == {"closed_form_rel": 1.0,
                                           "degenerate_scale": 1e-12}
    assert moved.digest != spec.digest


def test_unknown_tolerance_keys_rejected():
    spec_doc = {
        "experiment_id": "two_mass_fourth_cumulant",
        "grid": GRID_DOC,
        "params": {"masses_sq": [1.0, 4.0], "packet": PACKET_DOC},
        "tolerances": {"closed_form_relly": 1e-10},
    }
    with pytest.raises(SchemaError, match="closed_form_relly"):
        run_experiment(ExperimentSpec.from_dict(spec_doc))
