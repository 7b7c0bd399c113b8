"""Independent oracles the tests check the package against.

Each is a deliberately different algorithm from the package's: set
partitions by recursive element insertion and moments/cumulants by the sum
over them (the package runs exp/log over bitmask set functions), Bell
numbers by the Bell triangle, perfect matchings by pairing the first
element with each other one, the covariance kernel in position space
(the package sums in momentum space), quasi-freeness from the
connected 4-point function on one probe (the package compares the leaves'
covariance symbols), the quasi-free defect over every full-grid mode (the
package reads the half grid), the half-spectrum multiplicities by folding
every full-grid mode onto the rfftn half grid (the package writes the rule
down), and the momentum negation k -> -k by flipping and rolling each axis
(the package computes the flat index of -k mod N).  `per_call_pair_exp` is
the one oracle of bits alone: the hafnian recursion with its layers cut from
the rooted splits on every call, where the package caches them per order.
`two_table_neglog1m` is the condition scale -log(1 - t) by two coupled
recursions, for -log(1 - t) and 1/(1 - t) (the package reads it off one
subset_log of -t).

`SignedLeaf` is the negative control of reflection positivity: a Gaussian
leaf over a signed spectral measure (a Pauli-Villars ghost), and
`slab_leaf_witnesses` reads each leaf's zero-momentum time-slab matrix off
the position-space kernel.

`kappa4_sigma_and_bias` is the delta-method spread and bias of the Monte
Carlo kappa4 estimate from the exact moments up to order 8, and
`spectral_rotation_defects` the refinement study's rotation defects by the
spectral-measure route (the package reads the gaussianized study model).

`laplace_envelope` is a convex envelope with closed forms: the leaf lambda rho
mixed over lambda ~ Exp(theta) is the symmetric multivariate Laplace field
(Kotz, Kozubowski & Podgorski, The Laplace Distribution and Generalizations,
2001), with Gamma(z f) = 1 / (1 + theta z^2 S2_rho(f, f) / 2), S_2k = k!
theta^k haf(G) and kappa_2k = (k - 1)! theta^k haf(G), G = S2_rho(f_i, f_j),
and `hafnian` sums over `own_pairings`.
"""

import math
from functools import lru_cache

import numpy as np

from schwingerlab.functional import MomentTable, QuasiFree, SchwingerFunctional, envelope
from schwingerlab.lattice import Grid, TestFunction, gaussian_packet, lattice_symbol
from schwingerlab.propagator import SpectralMeasure, spectral_two_point
from schwingerlab.partitions import _exp, _layers


@lru_cache(maxsize=None)
def insertion_partitions(n):
    """All set partitions of {1..n}, each a tuple of ascending blocks:
    element n put into each block of every partition of {1..n-1}, or into
    a block of its own."""
    if n == 0:
        return ((),)
    out = []
    for smaller in insertion_partitions(n - 1):
        for i in range(len(smaller)):
            out.append(smaller[:i] + (smaller[i] + (n,),) + smaller[i + 1:])
        out.append(smaller + ((n,),))
    return tuple(out)


def bell_triangle(n):
    """n-th Bell number by the Bell triangle."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def oracle_moment(cums, n):
    """Order-n moment from the cumulants of every nonempty subset of {1..n},
    keyed by ascending tuples: the sum over partitions of prod_B cums[B]."""
    total = 0j
    for blocks in insertion_partitions(n):
        prod = 1 + 0j
        for b in blocks:
            prod *= cums[b]
        total += prod
    return total


def oracle_cumulant(moms, n):
    """Order-n cumulant from the moments of every nonempty subset of {1..n}:
    the sum over partitions of (-1)^(k-1) (k-1)! prod_B moms[B], k blocks."""
    total = 0j
    for blocks in insertion_partitions(n):
        k = len(blocks)
        prod = 1 + 0j
        for b in blocks:
            prod *= moms[b]
        total += math.factorial(k - 1) * (-1) ** (k - 1) * prod
    return total


def per_call_pair_exp(a):
    """pair_exp with its layers built on every call: each even size's rooted
    splits cut to the columns 2^j, whose block is a pair."""
    layers = []
    for s, (masks, blocks, rests) in list(enumerate(_layers(a), 1))[1::2]:
        pairs = 1 << np.arange(s - 1)
        layers.append((masks, blocks[:, pairs], rests[:, pairs]))
    return _exp(a, layers)


def two_table_neglog1m(t):
    """-log(1 - t), t[0] unread: out = sum_T t[T] inv[S - T] and inv = 1/(1 - t) =
    exp(out) = sum_T out[T] inv[S - T], over the blocks T that hold min S."""
    out, inv = np.zeros_like(t), np.zeros_like(t)
    inv[..., 0] = 1.0
    for masks, blocks, rests in _layers(t):
        out[..., masks] = (t[..., blocks] * inv[..., rests]).sum(-1)
        inv[..., masks] = (out[..., blocks] * inv[..., rests]).sum(-1)
    return out


def own_pairings(items):
    """Perfect matchings of a tuple: its first element paired with each other."""
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for j, other in enumerate(rest):
        for tail in own_pairings(rest[:j] + rest[j + 1:]):
            yield ((first, other),) + tail


def hafnian(G, items):
    """haf of G on items: the sum over perfect matchings of the products of G's entries."""
    return sum(math.prod(G[i, j] for i, j in pairing) for pairing in own_pairings(tuple(items)))


def laplace_envelope(rho, theta, q):
    """The q-leaf Gauss-Laguerre envelope of the Laplace field over rho: leaf lambda_j rho
    of weight w_j, (x_j, w_j) the nodes and weights of `laggauss(q)` for the integral
    of exp(-x) g(x) over x > 0 and lambda_j = theta x_j.  It has E lambda^k = k! theta^k
    exactly for k <= 2q - 1, so every moment and cumulant up to order 4q - 2, while its
    Gamma only tends to the closed form as q grows."""
    nodes, weights = np.polynomial.laguerre.laggauss(q)
    leaf = [QuasiFree(SpectralMeasure(tuple((m2, theta * x * a) for m2, a in rho.atoms)))
            for x in nodes.tolist()]
    return envelope(list(zip(weights.tolist(), leaf)))


def covariance_kernel(grid, m2):
    """Position-space covariance C(x) = L^-d sum_k exp(i k.x) / (khat^2 + m2).

    Indexed by lattice displacement in FFT layout; real, even, maximal at
    zero displacement.  Satisfies a^(2d) sum_{x,y} f(x) C(x-y) g(y) = S2(f,g).
    """
    return np.fft.ifftn(1.0 / (lattice_symbol(grid) + m2)).real / grid.cell


def fixture_packet(grid):
    """The standard probe: centered packet, width L/8, zero momentum."""
    center = np.full(grid.d, grid.extent / 2.0)
    width = max(2.0 * grid.spacing, grid.extent / 8.0)
    return gaussian_packet(grid, center, width)


def probe_quasi_free(G, grid):
    """Quasi-freeness read off one probe: |S4T(f, f, f, f)| <= 1e-9 * its
    cumulant scale on the fixture packet f.  Exact Gaussians cancel to about
    1e-14 of the scale; a mixture whose leaves differ on f leaves a defect of
    at least 1e-6 of it.  Leaves tuned to agree on f fool it."""
    table = MomentTable(G, [fixture_packet(grid)] * 4)
    return bool(abs(table.cumulants[-1]) <= 1e-9 * table.scales[-1])


def full_grid_quasi_free_defect(G, grid):
    """quasi_free_defect with the leaf symbols P_l(k) on every FFT-ordered
    full-grid mode k, not only on the half grid."""
    weights, masses, atoms = G._atom_table
    rows = atoms[weights > 0] @ (1.0 / (masses[:, None] + lattice_symbol(grid).ravel()))
    first = rows[:1]
    return float(np.max(np.abs(rows - first) / first.max(axis=1, keepdims=True), initial=0.0))


def reflect_momentum(arr):
    """Index map k -> -k (mod the Brillouin zone) on an FFT-ordered array:
    every axis flipped, then rolled by one."""
    for ax in range(arr.ndim):
        arr = np.roll(np.flip(arr, axis=ax), 1, axis=ax)
    return arr


def half_multiplicity(grid):
    """How many full-grid modes land on each rfftn half-grid mode, flat: each
    mode k itself, or its -k when k_last > N/2."""
    n, half = grid.n_per_axis, grid.n_per_axis // 2 + 1
    full = np.indices(grid.shape).reshape(grid.d, -1)
    folded = np.where(full[-1] < half, full, (-full) % n)
    count = np.zeros(grid.shape[:-1] + (half,))
    np.add.at(count, tuple(folded), 1.0)
    return count.ravel()


def half_rows(f):
    """[Re h | Im h] of h = rfftn(part) * a^d, one unbatched transform per
    part: Re f, then Im f when it is not all zero."""
    parts = [f.values.real] + ([f.values.imag] if np.any(f.values.imag) else [])
    hats = [(np.fft.rfftn(p) * f.grid.cell).ravel() for p in parts]
    return [np.concatenate([h.real, h.imag]) for h in hats]


def half_row(f):
    """The one row X_f = rows(Re f) + 1j * rows(Im f) of half_rows, or the
    real row alone when Im f is all zero."""
    rows = half_rows(f)
    return rows[0] if len(rows) == 1 else rows[0] + 1j * rows[1]


class SignedLeaf(SchwingerFunctional):
    """One Gaussian leaf over the atoms (m2_i, a_i), some a_i < 0.  With atoms
    (1, a) at (m1, m2), a < 0, its symbol P(k) = 1 / (khat^2 + m1) + a / (khat^2 + m2)
    stays positive at every k when 1 + a >= 0 and m2 + a m1 > 0, so its law is a
    valid Gaussian, invariant and clustering.  But its Kallen-Lehmann measure is
    signed, so it is not reflection positive.  SpectralMeasure refuses negative
    weights, so the atom table is set by hand: evaluate_many, leaf_two_point and
    difference_matrix read nothing else."""

    def __init__(self, masses_sq, atom_weights):
        self._atom_table = (np.array([1.0]), np.array(masses_sq, dtype=float),
                            np.array([atom_weights], dtype=float))


# the signed-measure controls: (1, -0.5) at m2 (1, 4), (1, -0.9) at (1, 1.5), (1, -0.2) at (1, 9)
SIGNED_CONTROLS = (SignedLeaf((1.0, 4.0), (1.0, -0.5)), SignedLeaf((1.0, 1.5), (1.0, -0.9)),
                   SignedLeaf((1.0, 9.0), (1.0, -0.2)))


def _slab_times(grid):
    """The slab time slices t = 1..T, T = min(8, N/2 - 1): all strictly positive."""
    return np.arange(1, min(8, grid.n_per_axis // 2 - 1) + 1)


def time_slabs(grid, scale=1.0):
    """Zero-momentum slabs f_t = scale on each of the _slab_times t."""
    slabs = []
    for t in _slab_times(grid):
        values = np.zeros(grid.shape)
        values[t] = scale
        slabs.append(TestFunction(grid, values))
    return slabs


def slab_leaf_witnesses(G, grid):
    """Per leaf, lambda_min(R) / tr R of the slab matrix R[i, j] = S2(f_i, theta f_j) of
    time_slabs, up to a positive factor, from the position-space kernel summed over space:
    theta f_j sits at site N-1-t_j, so R is the Hankel matrix C(t_i + t_j + 1).  A
    positive measure makes R PSD of rank at most its atom count (a roundoff floor); a
    signed one makes it indefinite."""
    n, t = grid.n_per_axis, _slab_times(grid)
    _, masses, atoms = G._atom_table
    kernels = np.array([covariance_kernel(grid, m2).reshape(n, -1).sum(axis=1)
                        for m2 in masses])
    slabs = (atoms @ kernels)[:, (t[:, None] + t[None, :] + 1) % n]
    return np.linalg.eigvalsh(slabs)[:, 0] / np.trace(slabs, axis1=1, axis2=2)


def kappa4_sigma_and_bias(G, f, n):
    """The standard deviation and the bias of estimate_fourth_cumulant's kappa4 = m4 - 3 m2^2
    over n samples of the centered x = phi(f), by the delta method (Kendall & Stuart, vol. 1),
    from mu_k = entry (1 << k) - 1 of one MomentTable(G, [f] * 8):
    n Var = mu8 - mu4^2 - 12 mu2 (mu6 - mu2 mu4) + 36 mu2^2 (mu4 - mu2^2), and
    bias = -3 (mu4 - mu2^2) / n."""
    moments = MomentTable(G, [f] * 8).moments.real
    mu2, mu4, mu6, mu8 = (float(moments[(1 << k) - 1]) for k in (2, 4, 6, 8))
    var = mu8 - mu4 ** 2 - 12 * mu2 * (mu6 - mu2 * mu4) + 36 * mu2 ** 2 * (mu4 - mu2 ** 2)
    return math.sqrt(var / n), -3 * (mu4 - mu2 ** 2) / n


def spectral_rotation_defects(spec):
    """A 2-D refinement spec's rotation defects by the spectral-measure route: a
    SpectralMeasure of the spec's masses and weights, each real packet built and
    renormalized on its own, and one spectral_two_point call per packet."""
    params = spec.params
    masses = [float(m) for m in params["masses_sq"]]
    weights = [float(w) for w in params.get("weights") or [1.0 / len(masses)] * len(masses)]
    rho = SpectralMeasure(tuple(zip(masses, weights)))
    pdoc, theta = params["packet"], math.pi / 6.0
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    center = np.asarray(pdoc["center"], dtype=float)
    momentum = np.asarray(pdoc.get("momentum") or [0.0, 0.0], dtype=float)
    defects = []
    for n in params["levels"]:
        grid = Grid(2, n, float(params["extent"]) / n)
        mid = np.full(2, grid.extent / 2.0)
        s2 = []
        for c, p in ((center, momentum), (mid + rot @ (center - mid), rot @ momentum)):
            packet = gaussian_packet(grid, c, float(pdoc["width"]), p)
            real = TestFunction(grid, packet.values.real)
            f = (1.0 / real.l2_norm()) * real
            s2.append(spectral_two_point(f, f, rho).real)
        defects.append(abs(s2[1] - s2[0]))
    return defects
