"""Scripted experiments on the mixture models.

Three experiment families, each a pure function of its spec document and
each a row of `FAMILIES` (runner, params, tolerance defaults), against
which a spec is checked when it is loaded:

* two_mass_fourth_cumulant: the connected 4-point function of a two-mass
  mixture computed three ways (the model's cumulant table, hand-derived
  closed form, Monte Carlo) and cross-checked.
* iteration: the mix -> gaussianize -> mix-again construction; its
  two-point function collapses to the convolved spectral measure while
  its 4-point function does not.
* refinement: fixed physical box, shrinking spacing; convergence order of
  the lattice two-point data and of the off-axis rotation defect.

Closed form used by the first experiment (and by the iteration, with
variances in place of squared differences): for a two-component mixture
with weights (w, 1-w) of Gaussians whose two-point functions are S2_1 and
S2_2, every Wick pairing (B1, B2) contributes

    w P1 + (1-w) P2 - Q = w (1-w) [S2_1 - S2_2](B1) * [S2_1 - S2_2](B2)

where P_i pairs within component i and Q pairs the mixed two-point
function; summing the three pairings of four slots gives

    S4_connected = w (1-w) * sum_pairings dS2(B1) dS2(B2),

which for four equal arguments is 3 w (1-w) dS2(f,f)^2.  More generally,
for a mixture of Gaussian components alpha with weights lambda_alpha,

    S4_connected = sum_pairings Cov_lambda( S2_alpha(B1), S2_alpha(B2) ),

i.e. 3 Var_lambda(S2_alpha(f,f)) on equal arguments.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SchemaError
from .fixtures import MAX_SEED
from .functional import (ROUNDOFF_FLOOR, MomentTable, QuasiFree, SchwingerFunctional, envelope,
                         gaussianize)
from .lattice import Grid, TestFunction, l2_norms, packet_from_doc, packet_values
from .montecarlo import MAX_SAMPLE_COUNT, estimate_fourth_cumulant, pair_values
from .propagator import SpectralMeasure
from .serialize import canonical_digest, json_integer, json_number, overrides, require_keys

# The runner is named and looked up at call time, so wrappers set on the module see it.
Family = namedtuple("Family", "runner required optional tolerances")

FAMILIES = {
    "two_mass_fourth_cumulant": Family(
        "run_two_mass_fourth_cumulant", ("masses_sq", "packet"), ("weight", "mc_samples"),
        {"closed_form_rel": 1e-10, "degenerate_scale": 1e-12}),
    "iteration": Family(
        "run_iteration", ("families", "lambda_weights", "packet"), (),
        {"two_point_rel": 1e-12, "closed_form_rel": 1e-10, "nonzero_scale": 1e-6}),
    "refinement": Family(
        "run_refinement_study", ("d", "extent", "levels", "masses_sq", "packet"),
        ("weights",), {"min_order": 1.8}),
}
EXPERIMENT_IDS = tuple(FAMILIES)


@dataclass(frozen=True)
class ExperimentSpec:
    """Fully determines one experiment run; hashed into every output."""

    experiment_id: str
    grid: Grid
    params: dict
    seed: int = 0
    tolerances: dict = field(default_factory=dict)

    @property
    def digest(self) -> str:
        return canonical_digest({**self.as_dict(), "tolerances": {
            k: float(v) for k, v in sorted(self.tolerances.items())}})

    def as_dict(self) -> dict:
        return {"experiment_id": self.experiment_id, "grid": self.grid.as_dict(),
                "params": self.params, "seed": self.seed,
                "tolerances": self.tolerances}

    def resolved_tolerances(self) -> dict[str, float]:
        return overrides(self.tolerances, FAMILIES[self.experiment_id].tolerances,
                         "experiment spec.tolerances")

    @staticmethod
    def from_dict(doc: dict) -> "ExperimentSpec":
        require_keys(doc, ["experiment_id", "grid", "params"],
                     ["seed", "tolerances"], "experiment spec")
        exp_id = doc["experiment_id"]
        if exp_id not in EXPERIMENT_IDS:
            raise SchemaError(
                f"experiment_id must be one of {EXPERIMENT_IDS}, got {exp_id!r}"
            )
        grid = Grid.from_dict(doc["grid"])
        family = FAMILIES[exp_id]
        require_keys(doc["params"], family.required, family.optional,
                     "experiment spec.params")
        tolerances = doc.get("tolerances", {})
        overrides(tolerances, family.tolerances, "experiment spec.tolerances")
        return ExperimentSpec(exp_id, grid, dict(doc["params"]),
                              json_integer(doc.get("seed", 0), "experiment spec.seed", 0,
                                           MAX_SEED), dict(tolerances))


@dataclass(frozen=True)
class ExperimentReport:
    experiment_id: str
    passed: bool
    spec_digest: str
    values: dict
    notes: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        return {"experiment_id": self.experiment_id, "passed": self.passed,
                "spec_digest": self.spec_digest, "values": self.values,
                "notes": list(self.notes)}


def _numbers(values, ctx: str) -> list[float]:
    if not isinstance(values, list):
        raise SchemaError(f"{ctx} must be a list of numbers, got {values!r}")
    return [float(json_number(v, f"{ctx}[{i}]")) for i, v in enumerate(values)]


def point_mass_mixture(atoms) -> SchwingerFunctional:
    """Mixture sum w * Gaussian(m2) of single-mass leaves, one per (m2, w) pair."""
    return envelope([(w, QuasiFree(SpectralMeasure.delta(m2))) for m2, w in atoms])


def two_mass_mixture(m1_sq: float, m2_sq: float, w: float = 0.5) -> SchwingerFunctional:
    """Mixture w * Gaussian(m1) + (1-w) * Gaussian(m2) of single-mass leaves."""
    return point_mass_mixture([(m1_sq, w), (m2_sq, 1.0 - w)])


def run_two_mass_fourth_cumulant(spec: ExperimentSpec) -> ExperimentReport:
    """Connected 4-point function of the two-mass mixture, three ways.

    (a) the cumulant of the model tree (`MomentTable`),
    (b) closed form 3 w (1-w) [S2_m1(f,f) - S2_m2(f,f)]^2 (see module
        docstring for the derivation),
    (c) Monte Carlo fourth cumulant of phi(f), when mc_samples > 0.
    """
    masses = _numbers(spec.params["masses_sq"], "two_mass masses_sq")
    if len(masses) != 2:
        raise SchemaError(f"masses_sq must have two entries, got {masses!r}")
    m1_sq, m2_sq = masses
    w = float(json_number(spec.params.get("weight", 0.5), "two_mass weight"))
    if not 0.0 <= w <= 1.0:
        raise DomainError(f"mixture weight must be in [0,1], got {w}")
    mc_samples = json_integer(spec.params.get("mc_samples", 0), "two_mass mc_samples")
    if not (mc_samples == 0 or 3 <= mc_samples <= MAX_SAMPLE_COUNT):
        raise SchemaError(f"two_mass mc_samples must be 0 or in 3..{MAX_SAMPLE_COUNT}, "
                          f"got {mc_samples}")
    f = packet_from_doc(spec.grid, spec.params["packet"], "two_mass packet")

    model = two_mass_mixture(m1_sq, m2_sq, w)  # DomainError below the floor
    table = MomentTable(model, [f] * 4)
    route_a = float(table.cumulants[-1].real)
    scale = float(table.scales[-1])

    s2_m1, s2_m2 = model.leaf_two_point([f], [f])[0].real.tolist()   # leaves m1, m2
    d_s2 = s2_m1 - s2_m2
    route_b = 3.0 * w * (1.0 - w) * d_s2 ** 2

    tols = spec.resolved_tolerances()
    degenerate = (m1_sq == m2_sq) or w in (0.0, 1.0)
    if degenerate:
        agree_ab = abs(route_a) <= tols["degenerate_scale"] * scale
    else:
        agree_ab = abs(route_a - route_b) <= tols["closed_form_rel"] * abs(route_b)

    values = {
        "cumulant_transform": route_a,
        "closed_form": route_b,
        "cumulant_scale": scale,
        "delta_s2": d_s2,
        "weight": w,
    }
    notes = []
    passed = agree_ab
    if mc_samples > 0:
        xs = pair_values(model, spec.grid, f, spec.seed, mc_samples)
        est, err = estimate_fourth_cumulant(xs)
        values["monte_carlo"] = est
        values["monte_carlo_stderr"] = err
        agree_mc = abs(est - route_b) <= 3.0 * err
        values["monte_carlo_sigmas"] = abs(est - route_b) / err if err > 0 else 0.0
        passed = passed and agree_mc
        notes.append(f"monte carlo over {mc_samples} samples")
    if degenerate:
        notes.append("degenerate weights/masses: connected 4-point expected zero")
    return ExperimentReport(spec.experiment_id, bool(passed), spec.digest,
                            values, tuple(notes))


def run_iteration(spec: ExperimentSpec) -> ExperimentReport:
    """mix -> gaussianize -> mix-again, checked against the one-step model.

    Builds Gamma = envelope(lambda, [gaussianize(envelope(P_alpha, free
    leaves))]) and verifies (i) its two-point function equals the spectral
    superposition over the convolved measure sum_alpha lambda_alpha
    P_alpha, (ii) unless every family member is a point mass, its 4-point
    function differs from the one-step mixture built directly over the
    convolved measure, (iii) its connected 4-point function is nonzero
    exactly when the family's two-point functions differ.
    """
    if not isinstance(spec.params["families"], list):
        raise SchemaError("iteration families must be a list")
    families = [SpectralMeasure.from_pairs(pairs) for pairs in spec.params["families"]]
    lam = _numbers(spec.params["lambda_weights"], "iteration lambda_weights")
    if len(lam) != len(families):
        raise SchemaError("lambda_weights and families must have equal length")
    if len(families) < 2:
        raise SchemaError("iteration needs at least two families")
    f = packet_from_doc(spec.grid, spec.params["packet"], "iteration packet")

    # first step: per-family mixtures over single-mass leaves;
    # second step: gaussianize each; third step: mix with lambda.
    first_step = [point_mass_mixture(rho.atoms) for rho in families]
    children = [gaussianize(gamma) for gamma in first_step]
    iterated = envelope(list(zip(lam, children)))

    # convolved measure sum_alpha lambda_alpha P^alpha, assembled directly
    # (the constructor merges repeated masses in the order given)
    conv = SpectralMeasure(tuple((m2, lw * pw) for lw, rho in zip(lam, families)
                                 for m2, pw in rho.atoms))
    one_step = point_mass_mixture(conv.atoms)

    tols = spec.resolved_tolerances()
    table = MomentTable(iterated, [f] * 4)
    s2_model = float(table.moments[0b11].real)
    s2_conv = float(QuasiFree(conv).leaf_two_point([f], [f])[0, 0].real)
    two_point_ok = abs(s2_model - s2_conv) <= tols["two_point_rel"] * abs(s2_conv)

    s4_iter = float(table.moments[-1].real)
    s4_one = float(MomentTable(one_step, [f] * 4).moments[-1].real)
    delta_s4 = s4_iter - s4_one

    s4t = float(table.cumulants[-1].real)
    scale = float(table.scales[-1])
    s_alpha = iterated.leaf_two_point([f], [f])[0].real.tolist()   # one leaf per family
    mean_s = sum(lw * s for lw, s in zip(lam, s_alpha))
    var_s = sum(lw * (s - mean_s) ** 2 for lw, s in zip(lam, s_alpha))
    closed_form = 3.0 * var_s
    live = [s for lw, s in zip(lam, s_alpha) if lw > 0.0]  # weight-0 families drop out
    degenerate_family = max(live) - min(live) <= 1e-15 * max(map(abs, live))
    all_point_masses = all(len(rho.atoms) == 1 for rho in families)

    notes = []
    if degenerate_family:
        notes.append("every family with nonzero weight shares one two-point "
                     "function: connected 4-point expected zero")
        cumulant_ok = abs(s4t) <= 1e-12 * scale
    else:
        cumulant_ok = (abs(s4t - closed_form) <= tols["closed_form_rel"] * abs(closed_form)
                       and abs(s4t) > tols["nonzero_scale"] * scale)
    if all_point_masses:
        notes.append("all families are point masses: one-step and iterated "
                     "constructions coincide")
        s4_diff_ok = abs(delta_s4) <= 1e-12 * abs(s4_one)
    else:
        s4_diff_ok = abs(delta_s4) > tols["nonzero_scale"] * scale

    values = {
        "two_point_iterated": s2_model,
        "two_point_convolved": s2_conv,
        "fourth_moment_iterated": s4_iter,
        "fourth_moment_one_step": s4_one,
        "fourth_moment_difference": delta_s4,
        "connected_fourth": s4t,
        "connected_fourth_closed_form": closed_form,
        "cumulant_scale": scale,
        "family_two_points": s_alpha,
    }
    passed = two_point_ok and cumulant_ok and s4_diff_ok
    return ExperimentReport(spec.experiment_id, bool(passed), spec.digest,
                            values, tuple(notes))


def run_refinement_study(spec: ExperimentSpec) -> ExperimentReport:
    """Two- and four-point data at fixed physical box, shrinking spacing.

    Fits the convergence order from consecutive level differences (levels
    double n_per_axis, so order = log2 of the difference ratio) and, in
    d=2, tracks the defect of an off-axis rotated packet.
    """
    d = json_integer(spec.params["d"], "refinement d")
    if spec.grid.d != d:
        raise SchemaError(f"refinement grid d={spec.grid.d} disagrees with params d={d}")
    extent = float(json_number(spec.params["extent"], "refinement extent"))
    levels = [json_integer(n, f"refinement levels[{i}]")
              for i, n in enumerate(_numbers(spec.params["levels"], "refinement levels"))]
    if len(levels) < 3:
        raise SchemaError(f"refinement needs >= 3 grid levels, got {len(levels)}")
    if levels[0] < 1 or any(b != 2 * a for a, b in zip(levels, levels[1:])):
        raise SchemaError(f"levels must be positive and double: {levels}")
    masses = _numbers(spec.params["masses_sq"], "refinement masses_sq")
    weights = _numbers(spec.params.get("weights", []), "refinement weights")
    if not masses or (weights and len(weights) != len(masses)):
        raise SchemaError("masses_sq must be nonempty, and weights, if given, as long")
    if not weights:
        weights = [1.0 / len(masses)] * len(masses)
    pdoc = spec.params["packet"]

    model = point_mass_mixture(zip(masses, weights))
    gaussian = gaussianize(model)
    s2_vals, s4t_vals, rot_defects = [], [], []
    for n in levels:
        grid = Grid(d, n, extent / n)
        f = packet_from_doc(grid, pdoc, "refinement packet")
        table = MomentTable(model, [f] * 4)
        s2_vals.append(float(table.moments[0b11].real))
        s4t_vals.append(float(table.cumulants[-1].real))
        if d == 2:
            rot_defects.append(_rotation_defect(grid, pdoc, gaussian))

    # a level difference or defect at or below roundoff of the two-point data has converged: 0
    floor = ROUNDOFF_FLOOR * max(map(abs, s2_vals))
    s2_diffs = [abs(b - a) for a, b in zip(s2_vals, s2_vals[1:])]
    dd, rd = ([v if v > floor else 0.0 for v in vals] for vals in (s2_diffs, rot_defects))
    # each value shrinks, or both are 0 (converged, or a packet the rotation maps onto itself)
    monotone, rot_ok = (all(b < a or a == b == 0.0 for a, b in zip(v, v[1:])) for v in (dd, rd))
    # a converged difference leaves no finite order: None, written as JSON null
    order = min(math.log2(a / b) for a, b in zip(dd, dd[1:])) if all(dd) else None

    values = {
        "levels": levels,
        "two_point": s2_vals,
        "connected_fourth": s4t_vals,
        "two_point_diffs": s2_diffs,
        "fitted_order": order,
        "rotation_defects": rot_defects,
    }
    passed = (monotone and rot_ok
              and (order is None or order >= spec.resolved_tolerances()["min_order"]))
    notes = () if monotone else ("no convergence trend in the two-point data",)
    return ExperimentReport(spec.experiment_id, bool(passed), spec.digest,
                            values, notes)


def _rotation_defect(grid: Grid, pdoc: dict, G: QuasiFree) -> float:
    # Compare S2(f,f) for a cosine-modulated packet against the same packet
    # with its defining parameters rotated by 30 degrees about the box
    # center: an off-lattice rotation, so the defect measures the distance
    # to continuum invariance.  Real packets put |f^|^2 weight at +-p, where
    # the lattice symbol's anisotropy actually shows.  The packet document
    # was checked on this grid, and G is the study's model gaussianized.
    theta = math.pi / 6.0
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    center = np.asarray(pdoc["center"], dtype=float)
    mid = np.full(2, grid.extent / 2.0)
    momentum = np.asarray(pdoc.get("momentum") or [0.0, 0.0], dtype=float)
    real = packet_values(grid, np.array([center, mid + rot @ (center - mid)]),
                         [float(pdoc["width"])] * 2, np.array([momentum, rot @ momentum])).real
    fs = [TestFunction(grid, v) for v in real * (1.0 / l2_norms(grid, real))[:, None, None]]
    base, moved = G.leaf_two_point(fs, fs)[:, 0].real.tolist()
    return abs(moved - base)


def run_experiment(spec: ExperimentSpec) -> ExperimentReport:
    return globals()[FAMILIES[spec.experiment_id].runner](spec)
