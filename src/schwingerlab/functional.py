"""Schwinger generating functionals: Gaussian leaves and convex mixtures.

A model is a tree whose leaves are quasi-free (centered Gaussian)
functionals

    Gamma_rho(z f) = exp( -z^2/2 * S2_rho(f, f) )

over a spectral mass measure rho, and whose interior nodes are convex
mixtures Gamma_P(f) = sum_i w_i Gamma_i(f).  Mixing preserves every axiom
the checkers verify, but generically destroys quasi-freeness: connected
moments beyond order two stop vanishing.  A tree's leaves are the rows of
one atom table (leaf path weights w_l, leaf x mass weights), over which the
`propagator` kernels give every leaf's two-point values and Grams.  The
model is the flat sum Gamma(z f) = sum_l w_l exp(-z^2/2 S2_l(f, f)) over
that table, formed from leaf values in one place (`mix`); the tree is for
building, validation and files.  This module provides evaluation of a stack
of test functions at one z or at a 1-D array of z in one pass, the positivity
checks' matrices Gamma(f_i - p_j), finite-difference moments, one table of
the analytic moments, cumulants and cumulant scales of every sub-collection
of the arguments (subset exp and log of the leaf Grams, the cumulants
conditioned on the leaf), gaussianization (the quasi-free functional with the
same two-point function), the quasi-free defect of the leaves' covariance
symbols, regularity and moment-growth certificates, and the model file format.
"""

from __future__ import annotations

import cmath
import itertools
import math
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from . import partitions
from .errors import DomainError, SchemaError
from .fixtures import MAX_SEED, random_real_values, rng_from_seed
from .lattice import Grid, TestFunction, half_spectrum_rows, stacked_half_spectra
from .propagator import (SpectralMeasure, half_sobolev_norms, propagator_rows, row_forms, row_grams,
                         running_sum, sobolev_norms, two_point_grams, two_point_pairs)
from .serialize import json_integer, json_number, read_json, require_keys, write_json

MAX_TREE_DEPTH = 4
MAX_MOMENT_ORDER = 8
NUMERIC_MOMENT_CAP = 4
REGULARITY_C_CEILING = 1.0
# Relative roundoff floor of worst_z (C is flat along rays) and quasi_free_defect
ROUNDOFF_FLOOR = 64 * sys.float_info.epsilon
GROWTH_K_CEILING = 4.0
# The growth probe cache keeps 4 sets of sum_{even n <= n_max} trials * n half-spectrum
# rows, each at most 320 rows of 36,864 B (3,16,0.5), 11.8 MB: 47.2 MB in all
GROWTH_TRIALS_CAP = 16
# default_z_grid: rings of 8 points each in |z| <= Z_GRID_RADIUS
Z_GRID_RINGS = 8
Z_GRID_RADIUS = 4.0

# Finite-difference agreement expected of the extrapolated stencil,
# relative to the moment scale.
NUMERIC_TOLERANCE_SCHEDULE = {1: 1e-7, 2: 1e-7, 3: 1e-4, 4: 1e-5}


class SchwingerFunctional:
    """Base node of a model tree."""

    def evaluate_many(self, fs: Sequence[TestFunction], z=1.0) -> list[complex] | np.ndarray:
        """Gamma(z f) = sum_l w_l exp(-z^2/2 S2_l(f, f)) for every f in fs: a
        list for a scalar z, a (len(fs), len(z)) array for a 1-D z, empty or not; a z of
        ndim > 1 raises DomainError.  Each -c^2/2 is a Python complex and the leaves add
        in leaf order, so each value has the bits of its own call at (f, c)."""
        if np.ndim(z) > 1:
            raise DomainError(f"z must be a scalar or a 1-D array, got shape {np.shape(z)}")
        values = self.mix(self.leaf_two_point(fs, fs), z)
        return values if np.ndim(z) else values.tolist()

    def mix(self, s2: np.ndarray, z=1.0) -> np.ndarray:
        """Gamma = sum_l w_l exp(-z^2/2 s2_l) of leaf values s2 (..., L), the one place the
        model is formed from them: shape s2.shape[:-1] for a scalar z, (..., len(z)) for a 1-D
        z.  Each -c^2/2 is a Python complex and the leaves add in leaf order (running_sum)."""
        terms = [-0.5 * c * c * s2 for c in map(complex, np.ravel(z))]
        exps = np.exp(np.stack(terms, axis=-2) if terms
                      else np.zeros(s2.shape[:-1] + (0,) + s2.shape[-1:], complex))
        values = running_sum(self._atom_table[0] * exps)
        return values if np.ndim(z) else values[..., 0]

    def leaf_two_point(self, fs: Sequence[TestFunction],
                       gs: Sequence[TestFunction]) -> np.ndarray:
        """S2_l(f_i, g_i) of every leaf l and pair i, shape (len(fs), L)."""
        return two_point_pairs(fs, gs, *self._atom_table[1:])

    def difference_matrix(self, fs: Sequence[TestFunction],
                          partners: Sequence[TestFunction]) -> np.ndarray:
        """M[i, j] = Gamma(f_i - p_j) = sum_l w_l exp(-1/2 S2_l(f_i - p_j, f_i - p_j)),
        expanded over the leaf Grams of fs and the partners not among them."""
        union = list(fs) + [p for p in partners if all(p is not f for f in fs)]
        i = np.arange(len(fs))[:, None]
        j = np.array([[next(k for k, g in enumerate(union) if g is p) for p in partners]])
        grams = np.moveaxis(two_point_grams(union, *self._atom_table[1:]), 0, -1)
        return self.mix(grams[i, i] + grams[j, j] - grams[i, j] - grams[j, i])

    def leaves(self) -> tuple[tuple[float, "QuasiFree"], ...]:
        """Flattened (path weight, leaf) pairs, in tree order.

        A path weight is the product of the mixture weights on the way to
        the leaf, taken innermost first; `_atom_table` keeps these bits for
        evaluation, the sampler and the cluster check.
        """
        raise NotImplementedError

    def depth(self) -> int:
        raise NotImplementedError

    @cached_property
    def _atom_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Leaf path weights (L,), the distinct atom masses squared in
        ascending order (M,), and the leaf x mass atom-weight matrix (L, M)."""
        leaves = self.leaves()
        masses = sorted({m2 for _, leaf in leaves for m2, _ in leaf.rho.atoms})
        column = {m2: j for j, m2 in enumerate(masses)}
        atoms = np.zeros((len(leaves), len(masses)))
        for row, (_, leaf) in enumerate(leaves):
            for m2, aw in leaf.rho.atoms:
                atoms[row, column[m2]] = aw
        return np.array([w for w, _ in leaves]), np.array(masses), atoms


@dataclass(frozen=True)
class QuasiFree(SchwingerFunctional):
    """Centered Gaussian functional Gamma(zf) = exp(-z^2/2 S2_rho(f,f))."""

    rho: SpectralMeasure

    def leaves(self):
        return ((1.0, self),)

    def depth(self) -> int:
        return 1


@dataclass(frozen=True)
class Mixture(SchwingerFunctional):
    """Convex mixture Gamma(f) = sum_i w_i Gamma_i(f).

    The raw constructor records whatever it is given; `envelope` and the
    model file loader are the validating entry points.  That keeps the
    axiom checkers usable on deliberately corrupted trees.
    """

    children: tuple[tuple[float, SchwingerFunctional], ...]

    def leaves(self):
        return tuple((w * wl, leaf) for w, child in self.children
                     for wl, leaf in child.leaves())

    def depth(self) -> int:
        return 1 + max(child.depth() for _, child in self.children)


def envelope(children: Sequence[tuple[float, SchwingerFunctional]]) -> Mixture:
    """Validated convex mixture of functionals (weights sum to 1)."""
    node = Mixture(tuple((float(w), g) for w, g in children))
    validate_model(node)
    return node


def validate_model(G: SchwingerFunctional) -> None:
    """Check every structural invariant of a tree; raise DomainError if violated."""
    if isinstance(G, QuasiFree):
        return
    if isinstance(G, Mixture):
        if not G.children:
            raise DomainError("mixture needs at least one child")
        for w, child in G.children:
            if not (math.isfinite(w) and w >= 0):
                raise DomainError(f"mixture weight must be finite and >= 0, got {w}")
            validate_model(child)
        total = math.fsum(w for w, _ in G.children)
        if abs(total - 1.0) > 1e-12:
            raise DomainError(f"mixture weights sum to {total!r}, expected 1")
        if G.depth() > MAX_TREE_DEPTH:
            raise DomainError(f"tree depth {G.depth()} exceeds bound {MAX_TREE_DEPTH}")
        return
    raise DomainError(f"unknown node type {type(G).__name__}")


def min_mass_sq(G: SchwingerFunctional) -> float:
    """Smallest atom mass-squared in the tree: the model's own infrared floor."""
    return float(G._atom_table[1][0])


def quasi_free_defect(G: SchwingerFunctional, grid: Grid) -> float:
    """max |P_l(k) - P_1(k)| / max P_1(k) over k and the leaves l of positive
    weight, P_l(k) = sum_m a_lm / (khat^2 + m^2) the symbol of leaf l's
    covariance and P_1 the first such leaf's; k runs over the half grid,
    which holds every value, since khat^2 is even in k.  A finite mixture of
    centered Gaussians is Gaussian exactly when its components of positive
    weight share one covariance, so G is quasi-free on the grid exactly when
    this is 0, up to roundoff below ROUNDOFF_FLOOR (atoms merged in another
    order); it is exactly 0 for identical leaves and when no leaf has positive
    weight."""
    weights, masses, atoms = G._atom_table
    rows = propagator_rows(grid, masses, atoms[weights > 0])
    first = rows[:1]
    return float(np.max(np.abs(rows - first) / first.max(axis=1, keepdims=True), initial=0.0))


# ---------------------------------------------------------------------------
# Moments and cumulants
# ---------------------------------------------------------------------------

def _check_moment_args(fs: Sequence[TestFunction], cap: int) -> None:
    if not 1 <= len(fs) <= cap:
        raise DomainError(f"moment order n={len(fs)} outside 1..{cap}")


@lru_cache(maxsize=None)
def _pair_index(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs i < j of n arguments and their bitmasks {i, j}."""
    i, j = np.triu_indices(n, 1)
    return i, j, (1 << i) | (1 << j)


def _pair_table(grams: np.ndarray) -> np.ndarray:
    """Set functions Q[..., S] = grams[..., i, j] on pairs S = {i, j}, else 0."""
    i, j, masks = _pair_index(grams.shape[-1])
    pairs = np.zeros(grams.shape[:-2] + (1 << grams.shape[-1],), dtype=np.complex128)
    pairs[..., masks] = grams[..., i, j]
    return pairs


def _finite_table(compute):
    """cached_property of a set function computed under np.errstate; a non-finite entry
    raises DomainError naming the table and the lowest order that holds one."""
    def checked(self):
        with np.errstate(all="ignore"):
            table = compute(self)
        if not np.isfinite(table).all():
            order = min(bin(s).count("1") for s in np.flatnonzero(~np.isfinite(table)).tolist())
            raise DomainError(f"{compute.__name__} of order {order} leave float64: the "
                              "arguments or the spectral weights are too large")
        return table
    return cached_property(checked)


class MomentTable:
    """Moments, cumulants and cumulant scales of every sub-collection of
    fs = (f_1..f_n), as set functions over bitmasks (see `partitions`):
    entry S holds the f_i whose bit i-1 is set, entry -1 all of fs.

    Given its leaf l the field is centered Gaussian, so the leaf's moments
    are the Wick sums exp(Q_l), with Q_l[{i,j}] = S2_l(f_i, f_j) on pairs
    and 0 elsewhere.  The moments are M = sum_l w_l exp(Q_l), the scales
    -log(1 - |M|) = -subset_log(-|M|), and the cumulants log M, conditioned on
    the leaf (law of total cumulance, Brillinger 1969):

        K = Qbar + log( sum_l w_l exp(Q_l - Qbar) + (1 - W) exp(-Qbar) ),

    Qbar = sum_l w_l Q_l, W = sum_l w_l.  One pair_exp of the 2L + 1 rows
    [Q_l; Q_l - Qbar; -Qbar] and one subset_log of [inner; -|M|] give all
    three.  On a single leaf Q_l - Qbar is exactly 0, and so is every cumulant
    above order two.  The (1 - W) term keeps M[empty] = 1 for raw trees whose
    weights do not sum to 1.  A table that leaves float64 raises DomainError
    on its first read; the scales read the moments first.
    """

    def __init__(self, G: SchwingerFunctional, fs: Sequence[TestFunction]):
        _check_moment_args(fs, MAX_MOMENT_ORDER)
        self.weights = G._atom_table[0]
        self.pairs = _pair_table(two_point_grams(fs, *G._atom_table[1:]))

    @cached_property
    def _tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # the unchecked moments, cumulants and scales, first read under a guard's np.errstate
        w, mean = self.weights, self.weights @ self.pairs
        exps = partitions.pair_exp(np.concatenate([self.pairs, self.pairs - mean, -mean[None]]))
        moments = w @ exps[:len(w)]
        inner = w @ exps[len(w):-1] + (1.0 - w.sum()) * exps[-1]
        logs = partitions.subset_log(np.stack([inner, -np.abs(moments)]))
        return moments, mean + logs[0], 0.0 - logs[1].real   # 0 - x is never -0.0

    @_finite_table
    def moments(self) -> np.ndarray:
        return self._tables[0]

    @_finite_table
    def cumulants(self) -> np.ndarray:
        return self._tables[1]

    @_finite_table
    def scales(self) -> np.ndarray:
        self.moments   # moments that leave float64 raise as themselves
        return self._tables[2]


_shared = (None, (), None)   # (G, tuple(fs), MomentTable) of the last reader call


def _shared_table(G: SchwingerFunctional, fs: Sequence[TestFunction]) -> MomentTable:
    """MomentTable(G, fs) from a one-entry memo keyed on G and each f in fs, in order,
    by `is` (models are frozen, test function values read-only).  The entry's strong
    references keep every id from reuse; a build that raises keeps the old entry."""
    global _shared
    fs = tuple(fs)
    model, args, table = _shared
    if model is not G or len(args) != len(fs) or any(a is not b for a, b in zip(args, fs)):
        table = MomentTable(G, fs)
        _shared = (G, fs, table)
    return table


def moment_analytic(G: SchwingerFunctional, fs: Sequence[TestFunction]) -> complex:
    """Order-n moment: the leaves' Wick pairing sums, mixed by leaf weight.

    Centered leaves: odd orders vanish, even orders are (n-1)!! pairing
    sums of two-point values.  This, cumulant and cumulant_scale read entry -1
    of one _shared_table; read a MomentTable directly for many entries.
    """
    return complex(_shared_table(G, fs).moments[-1])


def cumulant(G: SchwingerFunctional, fs: Sequence[TestFunction]) -> complex:
    """Order-n connected moment, conditioned on the leaf (see MomentTable)."""
    return complex(_shared_table(G, fs).cumulants[-1])


def cumulant_scale(G: SchwingerFunctional, fs: Sequence[TestFunction]) -> float:
    """Condition scale of the cumulant sum: sum over set partitions pi of
    (|pi|-1)! prod_B |moment(B)|.

    Useful as the reference magnitude when asserting that a cumulant
    vanishes: cancellation cannot beat roundoff times this scale.
    """
    return float(_shared_table(G, fs).scales[-1])


@dataclass(frozen=True)
class NumericMoment:
    """Finite-difference moment with extrapolation metadata."""

    value: complex
    stencils: tuple[complex, complex, complex]  # raw stencils at 2h, h, h/2
    disagreement: float        # gap between the two Richardson extrapolants
    precision_warning: bool


def moment_numeric(G: SchwingerFunctional,
                   fs: Sequence[TestFunction]) -> NumericMoment:
    """Order-n moment as the mixed central difference of Gamma at 0.

        S_n = (1/i^n) d^n/dt_1..dt_n Gamma(sum t_i f_i) |_0

    Steps are h_i = h0 / |f_i| in the model's floor norm, with one
    Richardson level over (h, h/2); h0 = eps^(1/(n+4)) balances the
    extrapolated O(h^4) truncation against roundoff.  A second
    extrapolation over (2h, h) serves only as the loss-of-significance
    detector: when the two extrapolants disagree beyond the documented
    schedule, the result carries a precision warning.

    The half-spectrum rows are linear in f, so each combination c_s = sum_i s_i h_i f_i has
    the row sum_i s_i h_i X_i: one product of the sign matrix with the scaled rows builds the
    2^(n-1) rows with s_1 = +1, and one row_forms call gives their per-mass forms S2_m(c_s).
    The atom weights multiply them after the momentum sum, as in two_point_pairs (a leaf form
    would fold a heavy atom weight into the symbol first, and overflow).  Every stencil is
    Gamma(z c_s) = sum_l w_l exp(-z^2/2 S2_l(c_s)) at z = 2, 1, 1/2, formed by `mix` as
    evaluate_many forms it.  The forms of -s are those of s bit for bit ((-c)^2 = c^2), so
    a step's signed sum over all 2^n sign vectors is t + (-1)^n t, t the sum over these in
    index order: +0 at odd n.  A step product prod(2 h_i) that is not a finite normal float64
    (it under- or overflows), or a stencil or extrapolant that is not finite, raises DomainError.
    """
    _check_moment_args(fs, NUMERIC_MOMENT_CAP)
    n, grid = len(fs), fs[0].grid
    x = stacked_half_spectra(fs)
    norms = half_sobolev_norms(grid, x, min_mass_sq(G)).tolist()
    if any(nu == 0.0 for nu in norms):
        return NumericMoment(0j, (0j, 0j, 0j), 0.0, False)
    h0 = float(np.finfo(float).eps ** (1.0 / (n + 4)))
    # per step: prod_i 2 h_i, each h_i rounded as scale / nu_i
    steps = [math.prod(2.0 * (scale / nu) for nu in norms) for scale in (2.0 * h0, h0, h0 / 2.0)]
    for step in steps:
        if not sys.float_info.min <= step <= sys.float_info.max:
            what, size = ("overflow", "small") if step > 1.0 else ("underflow", "large")
            raise DomainError(f"moment_numeric steps {what}: prod(2 h_i) = {step:.3g} is not "
                              f"a finite normal float64; the arguments are too {size} "
                              f"in the model's floor norm")
    masses, atoms = G._atom_table[1:]
    signs = [(1.0, *s) for s in itertools.product((1.0, -1.0), repeat=n - 1)]
    with np.errstate(over="ignore", invalid="ignore"):   # a non-finite stencil raises below
        rows = np.array(signs) @ (np.array([h0 / nu for nu in norms])[:, None] * x)
        forms = row_forms(rows, grid, masses, np.eye(len(masses))) @ atoms.T   # S2_l(c_s)
        values = G.mix(forms, [2.0, 1.0, 0.5])
    sums = (sum((math.prod(s) * v for s, v in zip(signs, col)), 0j) for col in values.T.tolist())
    d_2h, d_h, d_h2 = ((t + (-1) ** n * t) / step for t, step in zip(sums, steps))
    extrap_coarse = (4.0 * d_h - d_2h) / 3.0
    extrap_fine = (4.0 * d_h2 - d_h) / 3.0
    if not all(map(cmath.isfinite, (d_2h, d_h, d_h2, extrap_coarse, extrap_fine))):
        raise DomainError("moment_numeric stencils leave float64; the arguments "
                          "or the spectral weights are too large")
    disagreement = abs(extrap_fine - extrap_coarse)
    tol = NUMERIC_TOLERANCE_SCHEDULE[n]
    warn = disagreement > tol * max(abs(extrap_fine), 1e-3 * math.prod(norms))
    phase = (-1j) ** n   # 1 / i^n; times +0 it gives +0, where / i^3 gives -0
    return NumericMoment(complex(extrap_fine * phase),
                         (complex(d_2h * phase), complex(d_h * phase),
                          complex(d_h2 * phase)),
                         float(disagreement), bool(warn))


# ---------------------------------------------------------------------------
# Gaussianization and regularity
# ---------------------------------------------------------------------------

def gaussianize(G: SchwingerFunctional) -> QuasiFree:
    """Quasi-free functional with the same two-point function as G.

    Pushes every mixture weight down onto the spectral atoms and merges:
    the result's S2 equals G's identically, while all higher connected
    moments vanish.
    """
    if isinstance(G, QuasiFree):
        return G
    weights, masses, atoms = G._atom_table
    pushed = running_sum(weights * atoms.T)
    return QuasiFree(SpectralMeasure(tuple(zip(masses.tolist(), pushed.tolist()))))


@dataclass(frozen=True)
class RegularityBound:
    """Certified bound |Gamma(z f)| <= exp(constant |z|^e |f|^e'), |f| the
    Sobolev norm at the model's floor mass."""

    constant: float
    e: float
    e_prime: float


@dataclass(frozen=True)
class RegularityCertificate:
    passed: bool
    bound: RegularityBound
    worst_z: complex
    samples: int


def default_z_grid() -> list[complex]:
    """Rings of sample points in |z| <= Z_GRID_RADIUS, real and imaginary
    axes included."""
    radii = [Z_GRID_RADIUS * (i + 1) / Z_GRID_RINGS for i in range(Z_GRID_RINGS)]
    angles = [2.0 * math.pi * a / 8 for a in range(8)]
    return [complex(r * math.cos(t), r * math.sin(t)) for r in radii for t in angles]


def regularity_certificate(G: SchwingerFunctional,
                           f: TestFunction) -> RegularityCertificate:
    """Certify |Gamma(z f)| <= exp(C |z|^2 |f|^2) on default_z_grid, C minimal.

    The norm is the Sobolev norm at the model's own floor mass; for
    mixtures the certified C never exceeds the worst leaf's C (convexity).
    A failing bound is a failed certificate, not an error.
    """
    if not f.is_real:
        raise DomainError("regularity is certified for real test functions")
    nu2 = float(sobolev_norms([f], min_mass_sq(G))[0]) ** 2
    if nu2 == 0.0:
        bound = RegularityBound(1e-15, 2.0, 2.0)
        return RegularityCertificate(True, bound, 0j, 0)
    pts = default_z_grid()
    cs = [math.log(val) / (abs(z) * abs(z) * nu2) if val > 0 else -math.inf
          for z, val in zip(pts, map(abs, G.evaluate_many([f], pts)[0].tolist()))]
    best = max(cs)
    floor = best - ROUNDOFF_FLOOR * abs(best) if math.isfinite(best) else best
    worst = next(z for z, c in zip(pts, cs) if c >= floor)
    constant = max(best, 1e-15)
    bound = RegularityBound(constant, 2.0, 2.0)
    return RegularityCertificate(constant <= REGULARITY_C_CEILING, bound, worst, len(pts))


@dataclass(frozen=True)
class GrowthReport:
    """Outcome of the factorial moment-growth estimate |S_n| <= K^(n+1) sqrt(n!)."""

    passed: bool
    k: float
    per_order: tuple[tuple[int, float], ...]


def moment_growth_check(G: SchwingerFunctional, grid: Grid, n_max: int = 8,
                        trials: int = 6, seed: int = 0) -> GrowthReport:
    """Find the smallest K with |S_n| <= K^(n+1) sqrt(n!) on random probes.

    Probes are random real functions of unit norm in the model's floor
    Sobolev norm, so the norm product in the bound is 1.  They do not depend
    on G: _growth_probes draws them once per (grid, n_max, trials, seed).  A
    call takes the floor norms of an even order's cached rows and one row_grams
    call over a leading trial axis, whose trial slices are the matmuls of their
    own two_point_grams calls, so k keeps those bits; odd moments of centered
    leaves are 0.  n_max is in 1..MAX_MOMENT_ORDER, trials in 1..GROWTH_TRIALS_CAP and
    seed in 0..MAX_SEED (the Philox key word), so no two cache keys share probes.
    """
    for name, value, low, top in (("n_max", n_max, 1, MAX_MOMENT_ORDER),
                                  ("trials", trials, 1, GROWTH_TRIALS_CAP),
                                  ("seed", seed, 0, MAX_SEED)):
        if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
                and low <= value <= top):
            raise DomainError(f"{name}={value} is not an integer in {low}..{top}")
    floor = min_mass_sq(G)
    rows = []
    for n, x in enumerate(_growth_probes(grid, n_max, trials, seed), 1):
        mags = []
        if x is not None:
            grams = row_grams(x.reshape(trials, n, -1), grid, *G._atom_table[1:]).astype(complex)
            norms = half_sobolev_norms(grid, x, floor).reshape(trials, 1, n)
            # moments of the unit-norm f_i / nu_i: each trial's complex Gram / (nu_i nu_j)
            pairs = _pair_table(grams / (norms[..., None] * norms[..., None, :]))
            mags = np.abs(partitions.pair_exp(pairs)[..., -1] @ G._atom_table[0]).tolist()
        rows.append((n, max([(m / math.sqrt(math.factorial(n))) ** (1.0 / (n + 1))
                             for m in mags if m > 0], default=0.0)))
    worst = max(k for _, k in rows)
    return GrowthReport(worst <= GROWTH_K_CEILING, worst, tuple(rows))


@lru_cache(maxsize=4)
def _growth_probes(grid: Grid, n_max: int, trials: int, seed: int) -> tuple:
    """Per order n = 1..n_max, from one stream: the read-only rows [Re h | Im h]
    (half_spectrum_rows) of an even order's trials * n probes (random_real_values),
    and None for an odd order, whose probes are drawn and dropped."""
    rng, out = rng_from_seed(seed), []
    for n in range(1, n_max + 1):
        values = random_real_values(grid, rng, trials * n)
        out.append(None if n % 2 else half_spectrum_rows(grid, values))
    for x in out[1::2]:
        x.setflags(write=False)
    return tuple(out)


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------

MODEL_FORMAT = "schwinger-model"
MODEL_VERSION = 1


def model_to_dict(G: SchwingerFunctional) -> dict:
    if isinstance(G, QuasiFree):
        return {"kind": "quasifree", "atoms": G.rho.to_pairs()}
    if isinstance(G, Mixture):
        return {
            "kind": "mixture",
            "children": [
                {"weight": w, "model": model_to_dict(child)} for w, child in G.children
            ],
        }
    raise DomainError(f"unknown node type {type(G).__name__}")


def model_from_dict(doc: dict, ctx: str = "model") -> SchwingerFunctional:
    require_keys(doc, ["kind"], ["atoms", "children"], ctx)
    kind = doc["kind"]
    if kind == "quasifree":
        require_keys(doc, ["kind", "atoms"], (), ctx)
        try:
            rho = SpectralMeasure.from_pairs(doc["atoms"])
        except (DomainError, SchemaError) as exc:
            raise SchemaError(f"{ctx}.atoms: {exc}") from None
        return QuasiFree(rho)
    if kind == "mixture":
        require_keys(doc, ["kind", "children"], (), ctx)
        children = doc["children"]
        if not isinstance(children, list) or not children:
            raise SchemaError(f"{ctx}.children must be a nonempty list")
        kids = []
        for i, entry in enumerate(children):
            ectx = f"{ctx}.children[{i}]"
            require_keys(entry, ["weight", "model"], (), ectx)
            kids.append((float(json_number(entry["weight"], ectx + ".weight")),
                         model_from_dict(entry["model"], ectx + ".model")))
        try:
            return envelope(kids)
        except DomainError as exc:
            raise SchemaError(f"{ctx}: {exc}") from None
    raise SchemaError(f"{ctx}.kind must be 'quasifree' or 'mixture', got {kind!r}")


def save_model(G: SchwingerFunctional, path) -> None:
    write_json(path, {"format": MODEL_FORMAT, "version": MODEL_VERSION,
                      "model": model_to_dict(G)})


def load_model(path) -> SchwingerFunctional:
    doc = read_json(path)
    require_keys(doc, ["format", "version", "model"], (), str(path))
    if doc["format"] != MODEL_FORMAT or json_integer(doc["version"], "version") != MODEL_VERSION:
        raise SchemaError(
            f"{path}: expected {MODEL_FORMAT} v{MODEL_VERSION}, "
            f"got {doc.get('format')!r} v{doc.get('version')!r}"
        )
    return model_from_dict(doc["model"])
