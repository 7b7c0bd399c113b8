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

PSD witnesses are reported as (min eigenvalue / trace); defect witnesses
as absolute deviations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import DomainError, PreconditionError, SchemaError
from .fixtures import (fixture_packet, random_positive_time_function,
                       random_real_function, rng_from_seed)
from .functional import MomentTable, SchwingerFunctional, model_to_dict
from .lattice import (Grid, Isometry, TestFunction, apply_isometry,
                      positive_time_support, site_indicator)
from .propagator import spectral_two_point
from .serialize import canonical_digest, complex_pair

# Error budget behind the PSD floor of -1e-9 (relative to trace): the
# eigensolver is good to ~1e-14 on matrices this small, but each entry is
# a functional evaluation carrying accumulated momentum-sum roundoff.
DEFAULT_TOLERANCES = {
    "normalization_neutrality": 1e-12,
    "reflection_positivity": -1e-9,
    "stochastic_positivity": -1e-9,
    "euclidean_invariance": 1e-10,
    "cluster": 1e-6,
    "hermiticity": 1e-14,
}

# |S4T| <= 1e-9 * scale separates exact Gaussians (cancellation ~1e-14)
# from genuine mixtures (defect >= 1e-6 * scale on the fixture packet).
QUASI_FREE_CLASSIFICATION_TOL = 1e-9

_GRAM_SIZE_RANGE = (2, 12)

# Test-set sizes of the suite's reflection, stochastic and invariance checks
REFLECTION_COUNT, STOCHASTIC_COUNT, INVARIANCE_COUNT = 8, 8, 3


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one axiom check; self-consistent by construction."""

    check_id: str
    passed: bool
    witness: float
    tolerance: float
    comparison: str  # "<=" (defect ceiling) or ">=" (PSD floor)
    config_digest: str
    details: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.comparison not in ("<=", ">="):
            raise DomainError(f"bad comparison {self.comparison!r}")
        ok = (self.witness <= self.tolerance if self.comparison == "<="
              else self.witness >= self.tolerance)
        if bool(self.passed) != ok:
            raise DomainError(
                f"inconsistent report for {self.check_id}: passed={self.passed} "
                f"but witness {self.witness} {self.comparison} {self.tolerance} is {ok}"
            )

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


def _report(check_id: str, witness: float, tolerance: float, comparison: str,
            digest: str, details: dict) -> CheckReport:
    ok = witness <= tolerance if comparison == "<=" else witness >= tolerance
    return CheckReport(check_id, bool(ok), float(witness), float(tolerance),
                       comparison, digest, details)


def _psd_witness(M: np.ndarray, details: dict) -> float:
    """Hermitize (recording the defect), then return min eigenvalue / trace."""
    H = 0.5 * (M + M.conj().T)
    defect = float(np.max(np.abs(M - H)))
    details["hermiticity_defect"] = defect
    eigs = np.linalg.eigvalsh(H)
    trace = float(np.trace(H).real)
    details["min_eigenvalue"] = float(eigs[0])
    details["trace"] = trace
    return float(eigs[0] / trace)


def check_normalization_neutrality(G: SchwingerFunctional,
                                   test_set: Sequence[TestFunction],
                                   tolerance: float | None = None,
                                   config_digest: str = "") -> CheckReport:
    """Gamma(0) = 1 and Gamma(-f) = Gamma(f)* on a set of real functions."""
    tol = DEFAULT_TOLERANCES["normalization_neutrality"] if tolerance is None else tolerance
    grid = test_set[0].grid if test_set else None
    worst = 0.0
    details: dict = {}
    if grid is not None:
        z0 = abs(G.evaluate(TestFunction.zeros(grid)) - 1.0)
        details["normalization_defect"] = z0
        worst = z0
    for f in test_set:
        if not f.is_real:
            raise PreconditionError("neutrality is stated for real test functions")
        d = abs(G.evaluate(-f) - G.evaluate(f).conjugate())
        worst = max(worst, d)
    details["neutrality_defect"] = worst
    return _report("normalization_neutrality", worst, tol, "<=", config_digest, details)


def _difference_psd(check_id: str, G, fs: Sequence[TestFunction],
                    partners: Sequence[TestFunction], tolerance: float | None,
                    config_digest: str) -> CheckReport:
    """PSD check of M_ij = Gamma(f_i - partners_j)."""
    tol = DEFAULT_TOLERANCES[check_id] if tolerance is None else tolerance
    lo, hi = _GRAM_SIZE_RANGE
    if not lo <= len(fs) <= hi:
        raise PreconditionError(f"need {lo}..{hi} functions, got {len(fs)}")
    M = np.array([[G.evaluate(f - p) for p in partners] for f in fs],
                 dtype=np.complex128)
    details: dict = {"size": len(fs)}
    witness = _psd_witness(M, details)
    return _report(check_id, witness, tol, ">=", config_digest, details)


def check_reflection_positivity(G: SchwingerFunctional,
                                fs: Sequence[TestFunction],
                                tolerance: float | None = None,
                                config_digest: str = "") -> CheckReport:
    """PSD of M_ij = Gamma(f_i - R f_j) for positive-time supported f."""
    for idx, f in enumerate(fs):
        if not positive_time_support(f):
            raise PreconditionError(
                f"test function {idx} is not supported on positive times"
            )
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
    tol = DEFAULT_TOLERANCES["euclidean_invariance"] if tolerance is None else tolerance
    worst = 0.0
    worst_kind = ""
    for f in fs:
        base = G.evaluate(f)
        for iso in isometries:
            moved = G.evaluate(apply_isometry(f, iso))
            d = abs(moved - base)
            if d > worst:
                worst, worst_kind = d, iso.kind
    details = {"isometries": [iso.kind for iso in isometries],
               "worst_kind": worst_kind}
    return _report("euclidean_invariance", worst, tol, "<=", config_digest, details)


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
    out = []
    for sep in separations:
        if isinstance(sep, (int, np.integer)):
            vec = (int(sep),) + (0,) * (grid.d - 1)
        else:
            vec = tuple(int(s) for s in sep)
            if len(vec) != grid.d:
                raise DomainError(f"separation {sep!r} needs {grid.d} components")
        for comp in vec:
            if abs(comp) * grid.spacing > grid.extent / 4 + 1e-12:
                raise DomainError(
                    f"separation {vec} exceeds L/4 = {grid.extent / 4} for this box"
                )
        out.append(vec)
    if not out:
        raise DomainError("need at least one separation")
    return out


def check_cluster_defect(G: SchwingerFunctional, f: TestFunction,
                         g: TestFunction, separations,
                         mode: str = "auto",
                         tolerance: float | None = None,
                         config_digest: str = "") -> tuple[CheckReport, list]:
    """Cluster curve Delta(a) = Gamma(f + g^a) - Gamma(f) Gamma(g).

    'clusters' mode asserts |Delta| -> 0; 'defect' mode asserts Delta
    approaches the mixture limit Delta_inf, which is nonzero whenever the
    mixture has at least two components with different one-point data.
    When no tolerance is given it is widened by the first-order tail
    budget 2 sum_l w_l |S2_l(f, g^a_max)|: the finite box limits how small
    a defect the curve can resolve.
    """
    grid = f.grid
    if g.grid != grid:
        raise DomainError("f and g must live on one grid")
    seps = _normalize_separations(grid, separations)
    leaves = list(G.leaves())
    if mode == "auto":
        mode = "defect" if len(leaves) > 1 else "clusters"
    if mode not in ("clusters", "defect"):
        raise DomainError(f"unknown cluster mode {mode!r}")

    gamma_f = G.evaluate(f)
    gamma_g = G.evaluate(g)
    delta_inf = sum(w * leaf.evaluate(f) * leaf.evaluate(g)
                    for w, leaf in leaves) - gamma_f * gamma_g

    curve = []
    last_shift = None
    for vec in seps:
        shifted = apply_isometry(g, Isometry.translation(vec))
        last_shift = shifted
        delta = G.evaluate(f + shifted) - gamma_f * gamma_g
        curve.append((vec, complex(delta)))

    budget = 2.0 * sum(abs(w) * abs(spectral_two_point(f, last_shift, leaf.rho))
                       for w, leaf in leaves)
    floor = DEFAULT_TOLERANCES["cluster"]
    tol = tolerance if tolerance is not None else max(floor, budget)

    final = curve[-1][1]
    witness = abs(final) if mode == "clusters" else abs(final - delta_inf)
    details = {
        "mode": mode,
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
    tolerances: Mapping[str, float] = field(default_factory=dict)

    def resolved_tolerances(self) -> dict[str, float]:
        tols = dict(DEFAULT_TOLERANCES)
        unknown = set(self.tolerances) - set(tols)
        if unknown:
            raise SchemaError(f"unknown tolerance key(s): {sorted(unknown)}")
        tols.update({k: float(v) for k, v in self.tolerances.items()})
        return tols


@dataclass(frozen=True)
class SuiteResult:
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
    neutral_set = [random_real_function(grid, rng) for _ in range(4)]
    rp_set = [random_positive_time_function(grid, rng) for _ in range(REFLECTION_COUNT)]
    sp_set = [random_real_function(grid, rng) for _ in range(STOCHASTIC_COUNT)]
    inv_set = [random_real_function(grid, rng) for _ in range(INVARIANCE_COUNT)]

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
    probe_f = site_indicator(grid, base)
    probe_g = site_indicator(grid, base)
    cluster_report, _ = check_cluster_defect(
        G, probe_f, probe_g, seps, mode="auto",
        tolerance=None if "cluster" not in config.tolerances else tols["cluster"],
        config_digest=digest)
    reports.append(cluster_report)

    table = MomentTable(G, [fixture_packet(grid)] * 4)
    s4t, scale = table.cumulants[-1], table.scales[-1]
    quasi_free = abs(s4t) <= QUASI_FREE_CLASSIFICATION_TOL * scale

    passed = all(r.passed for r in reports)
    return SuiteResult(tuple(reports), bool(quasi_free), passed, digest)


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
