"""Schwinger generating functionals: Gaussian leaves and convex mixtures.

A model is a tree whose leaves are quasi-free (centered Gaussian)
functionals

    Gamma_rho(z f) = exp( -z^2/2 * S2_rho(f, f) )

over a spectral mass measure rho, and whose interior nodes are convex
mixtures Gamma_P(f) = sum_i w_i Gamma_i(f).  Mixing preserves every axiom
the checkers verify, but generically destroys quasi-freeness: connected
moments beyond order two stop vanishing.  This module provides evaluation,
finite-difference moments, one table of the analytic moments, cumulants
and cumulant scales of every sub-collection of the arguments (subset exp
and log of the leaf Grams, the cumulants conditioned on the leaf),
gaussianization (replacing a tree by the quasi-free functional with the
same two-point function), regularity and moment-growth certificates, and
the model file format.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import partitions
from .errors import BoundsError, DomainError, ModelError, SchemaError
from .lattice import Grid, TestFunction, lattice_symbol, sobolev_norm
from .propagator import SpectralMeasure, spectral_two_point
from .serialize import json_number, read_json, require_keys, write_json

MAX_TREE_DEPTH = 4
MAX_MOMENT_ORDER = 8
NUMERIC_MOMENT_CAP = 4
REGULARITY_C_CEILING = 1.0
GROWTH_K_CEILING = 4.0
# default_z_grid: rings of 8 points each in |z| <= Z_GRID_RADIUS
Z_GRID_RINGS = 8
Z_GRID_RADIUS = 4.0

# Finite-difference agreement expected of the extrapolated stencil,
# relative to the moment scale.
NUMERIC_TOLERANCE_SCHEDULE = {1: 1e-7, 2: 1e-7, 3: 1e-4, 4: 1e-5}


class SchwingerFunctional:
    """Base node of a model tree."""

    def evaluate(self, f: TestFunction, z: complex = 1.0) -> complex:
        raise NotImplementedError

    def leaves(self) -> tuple[tuple[float, "QuasiFree"], ...]:
        """Flattened (path weight, leaf) pairs, in tree order.

        A path weight is the product of the mixture weights on the way to
        the leaf, taken innermost first; the sampler's component choice and
        the cluster check read these bits.
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

    def evaluate(self, f: TestFunction, z: complex = 1.0) -> complex:
        s2 = spectral_two_point(f, f, self.rho)
        zz = complex(z)
        return complex(np.exp(-0.5 * zz * zz * s2))

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

    def evaluate(self, f: TestFunction, z: complex = 1.0) -> complex:
        return complex(sum(w * child.evaluate(f, z) for w, child in self.children))

    def leaves(self):
        return self._leaves

    @cached_property
    def _leaves(self):
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
    """Check every structural invariant of a tree; raise ModelError if violated."""
    if isinstance(G, QuasiFree):
        return
    if isinstance(G, Mixture):
        if not G.children:
            raise ModelError("mixture needs at least one child")
        for w, child in G.children:
            if not (math.isfinite(w) and w >= 0):
                raise ModelError(f"mixture weight must be finite and >= 0, got {w}")
            validate_model(child)
        total = math.fsum(w for w, _ in G.children)
        if abs(total - 1.0) > 1e-12:
            raise ModelError(f"mixture weights sum to {total!r}, expected 1")
        if G.depth() > MAX_TREE_DEPTH:
            raise ModelError(f"tree depth {G.depth()} exceeds bound {MAX_TREE_DEPTH}")
        return
    raise ModelError(f"unknown node type {type(G).__name__}")


def min_mass_sq(G: SchwingerFunctional) -> float:
    """Smallest atom mass-squared in the tree: the model's own infrared floor."""
    return min(leaf.rho.min_mass_sq for _, leaf in G.leaves())


# ---------------------------------------------------------------------------
# Moments and cumulants
# ---------------------------------------------------------------------------

def _check_moment_args(fs: Sequence[TestFunction], cap: int) -> None:
    if not 1 <= len(fs) <= cap:
        raise BoundsError(f"moment order n={len(fs)} outside 1..{cap}")
    if any(f.grid != fs[0].grid for f in fs):
        raise DomainError("moments need every argument on one grid")


def _leaf_grams(G: SchwingerFunctional,
                fs: Sequence[TestFunction]) -> tuple[np.ndarray, np.ndarray]:
    """Leaf path weights (L,) and leaf Grams S2_l(f_i, f_j), shape (L, n, n),
    from one matmul per distinct atom mass over the stacked transforms."""
    weights, masses, atoms = G._atom_table
    grid = fs[0].grid
    hats = np.array([f.hat.ravel() for f in fs])
    negs = np.array([f.hat_neg.ravel() for f in fs])
    kernels = 1.0 / (masses[:, None] + lattice_symbol(grid).ravel())
    sums = np.array([(negs * kernel) @ hats.T for kernel in kernels])
    return weights, np.einsum("lm,mij->lij", atoms, sums) / grid.extent ** grid.d


class MomentTable:
    """Moments, cumulants and cumulant scales of every sub-collection of
    fs = (f_1..f_n), as set functions over bitmasks (see `partitions`):
    entry S holds the f_i whose bit i-1 is set, entry -1 all of fs.

    Given its leaf l the field is centered Gaussian, so the leaf's moments
    are the Wick sums exp(Q_l), with Q_l[{i,j}] = S2_l(f_i, f_j) on pairs
    and 0 elsewhere.  The moments are M = sum_l w_l exp(Q_l), the scales
    -log(1 - |M|), and the cumulants log M, conditioned on the leaf (law of
    total cumulance, Brillinger 1969):

        K = Qbar + log( sum_l w_l exp(Q_l - Qbar) + (1 - W) exp(-Qbar) ),

    Qbar = sum_l w_l Q_l, W = sum_l w_l.  On a single leaf Q_l - Qbar is
    exactly 0, and so is every cumulant above order two.  The (1 - W) term
    keeps M[empty] = 1 for raw trees whose weights do not sum to 1.  Each
    table is computed on first use.
    """

    def __init__(self, G: SchwingerFunctional, fs: Sequence[TestFunction]):
        _check_moment_args(fs, MAX_MOMENT_ORDER)
        self.weights, grams = _leaf_grams(G, fs)
        i, j = np.triu_indices(len(fs), 1)
        self.pairs = np.zeros((len(self.weights), 1 << len(fs)), dtype=np.complex128)
        self.pairs[:, (1 << i) | (1 << j)] = grams[:, i, j]

    @cached_property
    def moments(self) -> np.ndarray:
        return self.weights @ partitions.pair_exp(self.pairs)

    @cached_property
    def cumulants(self) -> np.ndarray:
        mean = self.weights @ self.pairs
        inner = (self.weights @ partitions.pair_exp(self.pairs - mean)
                 + (1.0 - self.weights.sum()) * partitions.pair_exp(-mean))
        return mean + partitions.subset_log(inner)

    @cached_property
    def scales(self) -> np.ndarray:
        return partitions.subset_neglog1m(np.abs(self.moments))


def moment_analytic(G: SchwingerFunctional, fs: Sequence[TestFunction]) -> complex:
    """Order-n moment: the leaves' Wick pairing sums, mixed by leaf weight.

    Centered leaves: odd orders vanish, even orders are (n-1)!! pairing
    sums of two-point values.
    """
    if len(fs) % 2 == 1:
        _check_moment_args(fs, MAX_MOMENT_ORDER)
        return 0j
    return complex(MomentTable(G, fs).moments[-1])


def cumulant(G: SchwingerFunctional, fs: Sequence[TestFunction]) -> complex:
    """Order-n connected moment, conditioned on the leaf (see MomentTable)."""
    return complex(MomentTable(G, fs).cumulants[-1])


def cumulant_scale(G: SchwingerFunctional, fs: Sequence[TestFunction]) -> float:
    """Condition scale of the cumulant sum: sum over set partitions pi of
    (|pi|-1)! prod_B |moment(B)|.

    Useful as the reference magnitude when asserting that a cumulant
    vanishes: cancellation cannot beat roundoff times this scale.
    """
    return float(MomentTable(G, fs).scales[-1])


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
    """
    _check_moment_args(fs, NUMERIC_MOMENT_CAP)
    n = len(fs)
    floor = min_mass_sq(G)
    norms = [sobolev_norm(f, floor) for f in fs]
    if any(nu == 0.0 for nu in norms):
        return NumericMoment(0j, (0j, 0j, 0j), 0.0, False)
    h0 = np.finfo(float).eps ** (1.0 / (n + 4))

    def stencil(scale: float) -> complex:
        steps = [scale / nu for nu in norms]
        acc = 0j
        for signs in itertools.product((1.0, -1.0), repeat=n):
            combo = TestFunction.zeros(fs[0].grid)
            for s, h, f in zip(signs, steps, fs):
                combo = combo + (s * h) * f
            acc += math.prod(signs) * G.evaluate(combo, 1.0)
        return acc / math.prod(2.0 * h for h in steps)

    d_2h = stencil(2.0 * h0)
    d_h = stencil(h0)
    d_h2 = stencil(h0 / 2.0)
    extrap_coarse = (4.0 * d_h - d_2h) / 3.0
    extrap_fine = (4.0 * d_h2 - d_h) / 3.0
    disagreement = abs(extrap_fine - extrap_coarse)
    tol = NUMERIC_TOLERANCE_SCHEDULE[n]
    warn = disagreement > tol * max(abs(extrap_fine), 1e-3 * math.prod(norms))
    phase = 1j ** n
    return NumericMoment(complex(extrap_fine / phase),
                         (complex(d_2h / phase), complex(d_h / phase),
                          complex(d_h2 / phase)),
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
    acc: dict[float, float] = {}
    for w, leaf in G.leaves():
        for m2, aw in leaf.rho.atoms:
            acc[m2] = acc.get(m2, 0.0) + w * aw
    return QuasiFree(SpectralMeasure(tuple(sorted(acc.items()))))


@dataclass(frozen=True)
class RegularityBound:
    """Certified bound |Gamma(z f)| <= exp(constant |z|^e |f|^e')."""

    norm_id: str
    constant: float
    e: float
    e_prime: float

    def __post_init__(self) -> None:
        if self.e < 1 or self.e_prime < 1:
            raise DomainError("regularity exponents must be >= 1")
        if not self.constant > 0:
            raise DomainError("regularity constant must be > 0")


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
    floor = min_mass_sq(G)
    nu2 = sobolev_norm(f, floor) ** 2
    if nu2 == 0.0:
        bound = RegularityBound("sobolev_minus1_floor", 1e-15, 2.0, 2.0)
        return RegularityCertificate(True, bound, 0j, 0)
    pts = default_z_grid()
    best = -math.inf
    worst = 0j
    for z in pts:
        az = abs(z)
        if az < 1e-12:
            continue
        val = abs(G.evaluate(f, z))
        c = math.log(val) / (az * az * nu2) if val > 0 else -math.inf
        if c > best:
            best, worst = c, z
    constant = max(best, 1e-15)
    bound = RegularityBound("sobolev_minus1_floor", constant, 2.0, 2.0)
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
    Sobolev norm, so the norm product in the bound is 1.
    """
    from .fixtures import random_real_function, rng_from_seed

    if n_max > MAX_MOMENT_ORDER:
        raise BoundsError(f"n_max={n_max} exceeds cap {MAX_MOMENT_ORDER}")
    floor = min_mass_sq(G)
    rng = rng_from_seed(seed)
    worst = 0.0
    rows = []
    for n in range(1, n_max + 1):
        k_n = 0.0
        for _ in range(trials):
            fs = [(1.0 / sobolev_norm(f, floor)) * f
                  for f in (random_real_function(grid, rng) for _ in range(n))]
            mag = abs(moment_analytic(G, fs))
            if mag > 0:
                k_req = (mag / math.sqrt(math.factorial(n))) ** (1.0 / (n + 1))
                k_n = max(k_n, k_req)
        rows.append((n, k_n))
        worst = max(worst, k_n)
    return GrowthReport(worst <= GROWTH_K_CEILING, worst, tuple(rows))


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
    raise ModelError(f"unknown node type {type(G).__name__}")


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
        except ModelError as exc:
            raise SchemaError(f"{ctx}: {exc}") from None
    raise SchemaError(f"{ctx}.kind must be 'quasifree' or 'mixture', got {kind!r}")


def save_model(G: SchwingerFunctional, path) -> None:
    write_json(path, {"format": MODEL_FORMAT, "version": MODEL_VERSION,
                      "model": model_to_dict(G)})


def load_model(path) -> SchwingerFunctional:
    doc = read_json(path)
    require_keys(doc, ["format", "version", "model"], (), str(path))
    if doc["format"] != MODEL_FORMAT or doc["version"] != MODEL_VERSION:
        raise SchemaError(
            f"{path}: expected {MODEL_FORMAT} v{MODEL_VERSION}, "
            f"got {doc.get('format')!r} v{doc.get('version')!r}"
        )
    return model_from_dict(doc["model"])
