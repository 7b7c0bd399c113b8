"""Numerical verification suite for the generating-functional axioms.

Each checker turns one axiom into a concrete finite computation with an
explicit witness quantity and tolerance:

* normalization/neutrality:  Gamma(0) = 1 and Gamma(-f) = Gamma(f)* .
* reflection positivity:     the matrix Gamma(f_i - R f_j) is PSD for
                             functions supported on positive times, with R
                             the link time reflection.
* stochastic positivity:     the matrix Gamma(f_i - f_j) is PSD (Gamma is
                             a characteristic functional).
* Euclidean invariance:      Gamma is unchanged under the lattice point
                             group and translations.
* cluster behaviour:         Gamma(f + g^a) - Gamma(f) Gamma(g) tends, as
                             the separation grows, to the mixture defect
                             Delta_inf = sum_i w_i Gamma_i(f) Gamma_i(g)
                                         - Gamma(f) Gamma(g),
                             which vanishes only when the mixture is
                             supported on a single component.

Both PSD checks take real test functions and read their matrix from the
leaf Grams (`difference_matrix`).  PSD witnesses are reported as
(min eigenvalue / trace); defect witnesses as absolute deviations.

The suite's quasi-free flag is no axiom and takes no test function: every
leaf of positive weight must have the covariance symbol of the first one,
to within 64 eps of its largest value (`quasi_free_defect`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DomainError
from .fixtures import (random_positive_time_functions, random_real_functions,
                       rng_from_seed)
from .functional import ROUNDOFF_FLOOR, SchwingerFunctional, model_to_dict, quasi_free_defect
from .lattice import (Grid, Isometry, TestFunction, apply_isometry, common_grid,
                      positive_time_support, site_indicator)
from .propagator import running_sum
from .serialize import canonical_digest, complex_pair, overrides

# Error budget behind the PSD floor of -1e-9 (relative to trace): the
# eigensolver is good to ~1e-14 on matrices this small, but each entry is
# a weighted sum of exponentials of leaf Gram entries, each carrying
# accumulated momentum-sum roundoff.
DEFAULT_TOLERANCES = {
    "normalization_neutrality": 1e-12,
    "reflection_positivity": -1e-9,
    "stochastic_positivity": -1e-9,
    "euclidean_invariance": 1e-10,
    "cluster": 1e-6,
}

_GRAM_SIZE_RANGE = (2, 12)

# Test-set sizes of the suite's reflection, stochastic and invariance checks
REFLECTION_COUNT, STOCHASTIC_COUNT, INVARIANCE_COUNT = 8, 8, 3


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one axiom check; `passed` is read off the witness."""

    check_id: str
    witness: float
    tolerance: float
    comparison: str  # "<=" (defect ceiling) or ">=" (PSD floor)
    config_digest: str
    details: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.comparison not in ("<=", ">="):
            raise DomainError(f"bad comparison {self.comparison!r}")

    @property
    def passed(self) -> bool:
        return bool(self.witness <= self.tolerance if self.comparison == "<="
                    else self.witness >= self.tolerance)

    def as_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "passed": self.passed,
            "witness": self.witness,
            "tolerance": self.tolerance,
            "comparison": self.comparison,
            "config_digest": self.config_digest,
            "details": self.details,
        }


def _report(check_id: str, witness: float, tolerance: float | None,
            comparison: str, digest: str, details: dict) -> CheckReport:
    tolerance = DEFAULT_TOLERANCES[check_id] if tolerance is None else tolerance
    return CheckReport(check_id, float(witness), float(tolerance), comparison,
                       digest, details)


def _psd_witness(M: np.ndarray, details: dict) -> float:
    """Hermitize (recording the defect), then return min eigenvalue / trace."""
    H = 0.5 * (M + M.conj().T)
    defect = float(np.max(np.abs(M - H)))
    details["hermiticity_defect"] = defect
    eigs = np.linalg.eigvalsh(H)
    trace = float(np.trace(H).real)
    details["min_eigenvalue"] = float(eigs[0])
    details["trace"] = trace
    # trace 0 means every entry underflowed: the witness is the bare eigenvalue
    return float(eigs[0] / (trace or 1.0))


def check_normalization_neutrality(G: SchwingerFunctional,
                                   test_set: Sequence[TestFunction],
                                   tolerance: float | None = None,
                                   config_digest: str = "") -> CheckReport:
    """Gamma(0) = 1 and Gamma(-f) = Gamma(f)* on a set of real functions."""
    if not test_set:
        raise DomainError("need at least one test function")
    if not all(f.is_real for f in test_set):
        raise DomainError("neutrality is stated for real test functions")
    zero, *values = G.evaluate_many([TestFunction.zeros(test_set[0].grid)]
                                    + [h for f in test_set for h in (-f, f)])
    worst = max([abs(zero - 1.0)] + [abs(neg - pos.conjugate())
                                     for neg, pos in zip(values[::2], values[1::2])])
    details = {"normalization_defect": abs(zero - 1.0), "neutrality_defect": worst}
    return _report("normalization_neutrality", worst, tolerance, "<=", config_digest,
                   details)


def _difference_psd(check_id: str, G, fs: Sequence[TestFunction],
                    partners: Sequence[TestFunction], tolerance: float | None,
                    config_digest: str) -> CheckReport:
    """PSD check of M_ij = Gamma(f_i - partners_j) for real f_i."""
    lo, hi = _GRAM_SIZE_RANGE
    if not lo <= len(fs) <= hi:
        raise DomainError(f"need {lo}..{hi} functions, got {len(fs)}")
    for idx, f in enumerate(fs):
        if not f.is_real:
            raise DomainError(f"test function {idx} is not real")
    M = G.difference_matrix(fs, partners)
    details: dict = {"size": len(fs)}
    witness = _psd_witness(M, details)
    return _report(check_id, witness, tolerance, ">=", config_digest, details)


def check_reflection_positivity(G: SchwingerFunctional,
                                fs: Sequence[TestFunction],
                                tolerance: float | None = None,
                                config_digest: str = "") -> CheckReport:
    """PSD of M_ij = Gamma(f_i - R f_j) for positive-time supported f."""
    for idx, f in enumerate(fs):
        if not positive_time_support(f):
            raise DomainError(f"test function {idx} is not supported on positive times")
    reflected = [apply_isometry(f, Isometry.time_reflection()) for f in fs]
    return _difference_psd("reflection_positivity", G, fs, reflected,
                           tolerance, config_digest)


def check_stochastic_positivity(G, fs: Sequence[TestFunction],
                                tolerance: float | None = None,
                                config_digest: str = "") -> CheckReport:
    """PSD of M_ij = Gamma(f_i - f_j): Gamma as a characteristic functional."""
    return _difference_psd("stochastic_positivity", G, fs, fs,
                           tolerance, config_digest)


def check_euclidean_invariance(G, fs: Sequence[TestFunction],
                               isometries: Sequence[Isometry],
                               tolerance: float | None = None,
                               config_digest: str = "") -> CheckReport:
    """max |Gamma(g.f) - Gamma(f)| over the supplied lattice isometries."""
    if not fs or not isometries:
        raise DomainError("need at least one test function and one isometry")
    worst = 0.0
    worst_kind = ""
    for f in fs:
        base, *moved = G.evaluate_many([f] + [apply_isometry(f, iso) for iso in isometries])
        for iso, d in zip(isometries, [abs(value - base) for value in moved]):
            if d > worst:
                worst, worst_kind = d, iso.kind
    details = {"isometries": [iso.kind for iso in isometries],
               "worst_kind": worst_kind}
    return _report("euclidean_invariance", worst, tolerance, "<=", config_digest, details)


def point_group(grid: Grid) -> list[Isometry]:
    """Translations plus the generators of the lattice point group."""
    isos = [Isometry.translation(tuple([3] + [1] * (grid.d - 1))),
            Isometry.translation(tuple([grid.n_per_axis // 2] + [0] * (grid.d - 1)))]
    for ax in range(grid.d):
        isos.append(Isometry.axis_reflection(ax))
    for i in range(grid.d):
        for j in range(i + 1, grid.d):
            isos.append(Isometry.rotation(i, j))
    isos.append(Isometry.time_reflection())
    return isos


def _normalize_separations(grid: Grid, separations) -> list[tuple[int, ...]]:
    seps = [(int(sep),) + (0,) * (grid.d - 1) for sep in separations]
    for vec in seps:
        if abs(vec[0]) * grid.spacing > grid.extent / 4 + 1e-12:
            raise DomainError(f"separation {vec} exceeds L/4 = {grid.extent / 4} for this box")
    if not seps:
        raise DomainError("need at least one separation")
    return seps


def check_cluster_defect(G: SchwingerFunctional, f: TestFunction,
                         g: TestFunction, separations,
                         tolerance: float | None = None,
                         config_digest: str = "") -> tuple[CheckReport, list]:
    """Cluster curve Delta(a) = Gamma(f + g^a) - Gamma(f) Gamma(g).

    The witness is |Delta(a_max) - Delta_inf|.  On one leaf Delta_inf is
    exactly 0 and the check asserts clustering (mode 'clusters'); on more
    it asserts the approach to the mixture limit (mode 'defect'), nonzero
    whenever two components have different one-point data.  Separations
    are site counts along axis 0.  When no tolerance is given it is
    widened by the first-order tail budget 2 sum_l w_l |S2_l(f, g^a_max)|:
    the finite box limits how small a defect the curve can resolve.
    """
    grid = common_grid((f, g))
    seps = _normalize_separations(grid, separations)
    weights = G._atom_table[0]

    shifted = [apply_isometry(g, Isometry.translation(vec)) for vec in seps]
    sums = [f + s for s in shifted]
    # one kernel call: (f, f), (g, g), every (f + s, f + s), and (f, g^a_max) last
    s2 = G.leaf_two_point([f, g, *sums, f], [f, g, *sums, shifted[-1]])
    gamma_f, gamma_g, *values = G.mix(s2[:-1]).tolist()
    curve = [(vec, complex(v - gamma_f * gamma_g)) for vec, v in zip(seps, values)]
    leaf_f, leaf_g = np.exp((-0.5 + 0j) * s2[:2])   # mix's leaf terms at z = 1, bit for bit
    delta_inf = running_sum(weights * leaf_f * leaf_g) - gamma_f * gamma_g
    budget = 2.0 * running_sum(np.abs(weights) * np.abs(s2[-1]))
    tol = max(DEFAULT_TOLERANCES["cluster"], budget) if tolerance is None else tolerance

    witness = abs(curve[-1][1] - delta_inf)
    details = {
        "mode": "defect" if len(weights) > 1 else "clusters",
        "delta_infinity": complex_pair(delta_inf),
        "tail_budget": float(budget),
        "curve": [{"separation": list(vec), "delta": complex_pair(d)}
                  for vec, d in curve],
    }
    report = _report("cluster", witness, tol, "<=", config_digest, details)
    return report, curve


# ---------------------------------------------------------------------------
# The suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SuiteConfig:
    grid: Grid
    seed: int = 7
    tolerances: dict[str, float] = field(default_factory=dict)

    def resolved_tolerances(self) -> dict[str, float]:
        return overrides(self.tolerances, DEFAULT_TOLERANCES, "tolerance overrides")


@dataclass(frozen=True)
class SuiteResult:
    """Check reports, whether all passed, and the quasi-free flag, which is
    quasi_free_defect <= ROUNDOFF_FLOOR and does not depend on the seed."""

    reports: tuple[CheckReport, ...]
    quasi_free: bool
    passed: bool
    config_digest: str

    def as_dict(self) -> dict:
        return {
            "config_digest": self.config_digest,
            "passed": self.passed,
            "quasi_free": self.quasi_free,
            "reports": [r.as_dict() for r in self.reports],
        }


def suite_digest(G: SchwingerFunctional, config: SuiteConfig) -> str:
    return canonical_digest({
        "model": model_to_dict(G),
        "grid": config.grid.as_dict(),
        "seed": config.seed,
        "counts": [REFLECTION_COUNT, STOCHASTIC_COUNT, INVARIANCE_COUNT],
        # separations follow from the grid; the empty entry keeps digests stable
        "cluster_separations": [],
        "tolerances": {k: float(v) for k, v in sorted(config.tolerances.items())},
    })


def run_axiom_suite(G: SchwingerFunctional, config: SuiteConfig) -> SuiteResult:
    """Run every axiom check with seeded deterministic test sets."""
    grid = config.grid
    tols = config.resolved_tolerances()
    digest = suite_digest(G, config)

    rng = rng_from_seed(config.seed)
    neutral_set = random_real_functions(grid, rng, 4)
    rp_set = random_positive_time_functions(grid, rng, REFLECTION_COUNT)
    real_set = random_real_functions(grid, rng, STOCHASTIC_COUNT + INVARIANCE_COUNT)
    sp_set, inv_set = real_set[:STOCHASTIC_COUNT], real_set[STOCHASTIC_COUNT:]

    reports = [
        check_normalization_neutrality(
            G, neutral_set, tols["normalization_neutrality"], digest),
        check_reflection_positivity(
            G, rp_set, tols["reflection_positivity"], digest),
        check_stochastic_positivity(
            G, sp_set, tols["stochastic_positivity"], digest),
        check_euclidean_invariance(
            G, inv_set, point_group(grid), tols["euclidean_invariance"], digest),
    ]

    # cluster separations: 4, 8, ... sites up to N/4
    seps = tuple(range(4, grid.n_per_axis // 4 + 1, 4)) or (grid.n_per_axis // 4,)
    base = (grid.n_per_axis // 4,) + (grid.n_per_axis // 2,) * (grid.d - 1)
    probe = site_indicator(grid, base)
    cluster_report, _ = check_cluster_defect(
        G, probe, probe, seps,
        tolerance=None if "cluster" not in config.tolerances else tols["cluster"],
        config_digest=digest)
    reports.append(cluster_report)

    quasi_free = quasi_free_defect(G, grid) <= ROUNDOFF_FLOOR
    passed = all(r.passed for r in reports)
    return SuiteResult(tuple(reports), quasi_free, passed, digest)


def summary_lines(result: SuiteResult) -> list[str]:
    """Fixed-order human-readable table: check, passed, witness, tolerance."""
    lines = [f"config digest: {result.config_digest}",
             f"{'check':28s} {'status':6s} {'witness':>14s} {'tolerance':>12s}"]
    for r in result.reports:
        status = "pass" if r.passed else "FAIL"
        lines.append(f"{r.check_id:28s} {status:6s} {r.witness:>14.6e} "
                     f"{r.comparison}{r.tolerance:>11.2e}")
    lines.append(f"quasi-free: {str(result.quasi_free).lower()}")
    lines.append(f"suite: {'pass' if result.passed else 'FAIL'}")
    return lines
