"""Finite periodic lattices, test functions on them, and lattice isometries.

Conventions (used consistently by the whole package):

* Sites sit at x_i = n_i * a, n_i in {0..N-1}, with periodic wrap; signed
  bookkeeping (time support, displacements) folds coordinates to
  (-L/2, L/2] where L = N*a.
* Discrete Fourier transform  f^(k) = a^d sum_x exp(-i k.x) f(x)  on the
  momentum grid k = (2 pi / L) * integer mode vector.  Parseval then reads
  a^d sum_x |f|^2 = L^-d sum_k |f^|^2.
* A real u has u^(-k) = conj u^(k), so Grams and Sobolev norms read one row X_f =
  rows(Re f) + i rows(Im f), rows(u) = [Re | Im] of rfftn(u) a^d on the half grid (last
  axis 0..N/2), each mode weighted by its multiplicity: 1 on the planes k_last in {0, N/2}.
* The one momentum symbol is  khat^2 = sum_i (2/a)^2 sin^2(k_i a / 2);
  refinement studies approach the continuum k^2 by shrinking the spacing.
* Time is axis 0.  Time reflection is the *link* reflection through the
  plane between the t=0 and t=-a slices, i.e. site index n_0 -> N-1-n_0.
  With that placement the free lattice covariance is exactly reflection
  positive for functions supported on the strictly positive time slices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import DomainError
from .serialize import json_integer, json_number, require_keys

TIME_AXIS = 0
REALITY_TOL = 1e-14

_AXIS_CAPS = {1: 64, 2: 64, 3: 16}


@dataclass(frozen=True)
class Grid:
    """Periodic cubic lattice: n_per_axis**d sites with spacing a > 0."""

    d: int
    n_per_axis: int
    spacing: float

    def __post_init__(self) -> None:
        if self.d not in (1, 2, 3):
            raise DomainError(f"dimension must be 1, 2 or 3, got {self.d}")
        n = self.n_per_axis
        if n < 8 or (n & (n - 1)) != 0:
            raise DomainError(f"n_per_axis must be a power of two >= 8, got {n}")
        if n > _AXIS_CAPS[self.d]:
            raise DomainError(
                f"n_per_axis={n} exceeds the desk-scale cap "
                f"{_AXIS_CAPS[self.d]} for d={self.d}"
            )
        if not (isinstance(self.spacing, (int, float))
                and math.isfinite(self.spacing) and self.spacing > 0):
            raise DomainError(f"spacing must be finite and > 0, got {self.spacing}")
        try:
            scales = [self.cell, self.extent ** self.d, self.extent ** 2, (2 / self.spacing) ** 2]
        except OverflowError:
            scales = [math.inf]
        if not all(0.0 < s < math.inf for s in scales):
            raise DomainError(f"a^d, L^d, L^2 or (2/a)^2 out of range at spacing {self.spacing}")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n_per_axis,) * self.d

    @property
    def volume(self) -> int:
        """Total number of sites."""
        return self.n_per_axis ** self.d

    @property
    def extent(self) -> float:
        """Physical box length L per axis."""
        return self.n_per_axis * self.spacing

    @property
    def cell(self) -> float:
        """Position-space measure weight a^d."""
        return self.spacing ** self.d

    def axis_coordinates(self) -> np.ndarray:
        """Canonical site coordinates 0, a, ..., (N-1)a along one axis."""
        return np.arange(self.n_per_axis) * self.spacing

    def signed_axis_coordinates(self) -> np.ndarray:
        """Site coordinates folded to [-L/2, L/2)."""
        x = self.axis_coordinates()
        half = self.extent / 2
        return np.where(x >= half, x - self.extent, x)

    def as_dict(self) -> dict:
        return {"d": self.d, "n_per_axis": self.n_per_axis, "spacing": self.spacing}

    @staticmethod
    def from_dict(doc: dict) -> "Grid":
        require_keys(doc, ["d", "n_per_axis", "spacing"], (), "grid")
        return Grid(json_integer(doc["d"], "grid.d"),
                    json_integer(doc["n_per_axis"], "grid.n_per_axis"),
                    float(json_number(doc["spacing"], "grid.spacing")))


@lru_cache(maxsize=64)
def lattice_symbol(grid: Grid) -> np.ndarray:
    """khat^2 = sum_i (2/a)^2 sin^2(k_i a/2) on the FFT-ordered momentum grid."""
    n, a = grid.n_per_axis, grid.spacing
    k1 = 2.0 * np.pi * np.fft.fftfreq(n, d=a)
    s1 = (2.0 / a) ** 2 * np.sin(k1 * a / 2.0) ** 2
    out = reduce(np.add.outer, [s1] * grid.d) if grid.d > 1 else s1.copy()
    out.setflags(write=False)
    return out


@lru_cache(maxsize=64)
def half_spectrum(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """khat^2 and the multiplicity mu of every rfftn half-grid mode, flat and read-only."""
    half = grid.n_per_axis // 2 + 1
    mu = np.tile(np.where(np.arange(half) % (half - 1), 2.0, 1.0), grid.n_per_axis ** (grid.d - 1))
    out = lattice_symbol(grid)[..., :half].ravel(), mu
    for arr in out:
        arr.setflags(write=False)
    return out


class TestFunction:
    """Complex-valued function sampled on a Grid; argument of every functional.

    Values are immutable after construction (copy=False keeps the given array
    only if it is read-only and owns its memory or views a read-only array
    that does; otherwise it copies).  The half-spectrum row X_f (Grams and norms)
    is cached on first use.  Values carry units field^-1 volume^-1 so that
    pairings phi(f) are dimensionless.
    """

    __test__ = False  # keep pytest from collecting this as a test class
    __slots__ = ("grid", "values", "_half")

    def __init__(self, grid: Grid, values, copy: bool = True):
        arr = np.array(values, dtype=np.complex128, copy=copy or None)
        base = arr if arr.base is None else arr.base   # the array that owns the memory
        if not copy and (arr.flags.writeable or getattr(base, "base", base) is not None
                         or base.flags.writeable):
            arr = arr.copy()
        if arr.shape != grid.shape:
            raise DomainError(
                f"values shape {arr.shape} does not match grid shape {grid.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise DomainError("test function values must be finite")
        arr.setflags(write=False)
        self.grid = grid
        self.values = arr
        self._half = None

    @classmethod
    def zeros(cls, grid: Grid) -> "TestFunction":
        return cls(grid, np.zeros(grid.shape, dtype=np.complex128))

    @property
    def is_real(self) -> bool:
        """max |Im f| <= REALITY_TOL."""
        return bool(np.max(np.abs(self.values.imag), initial=0.0) <= REALITY_TOL)

    def __add__(self, other: "TestFunction") -> "TestFunction":
        return TestFunction(common_grid((self, other)), self.values + other.values)

    def __sub__(self, other: "TestFunction") -> "TestFunction":
        return TestFunction(common_grid((self, other)), self.values - other.values)

    def __neg__(self) -> "TestFunction":
        return TestFunction(self.grid, -self.values)

    def __mul__(self, c) -> "TestFunction":
        return TestFunction(self.grid, self.values * complex(c))

    __rmul__ = __mul__

    def inner(self, other: "TestFunction") -> complex:
        """Discrete L2 inner product  a^d sum_x conj(f) g."""
        cell = common_grid((self, other)).cell
        return complex(cell * np.sum(np.conj(self.values) * other.values))

    def l2_norm(self) -> float:
        return float(l2_norms(self.grid, self.values[None])[0])


def l2_norms(grid: Grid, values: np.ndarray) -> np.ndarray:
    """The discrete L2 norm sqrt(a^d sum_x |v|^2) of every row of a (k, ...) batch, summed as
    complex rows (as TestFunction holds them), so no bit depends on the stack."""
    flat = np.asarray(values, dtype=np.complex128).reshape(len(values), -1)
    return np.sqrt((grid.cell * np.add.reduce(np.conj(flat) * flat, axis=1)).real)


def common_grid(fs) -> Grid:
    """The one grid of every f in fs; DomainError if they are on more than one."""
    grid = fs[0].grid
    if any(f.grid != grid for f in fs):
        raise DomainError("test functions must all live on one grid")
    return grid


def half_spectrum_rows(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Rows [Re h | Im h], h = rfftn(v) * a^d, of every real v of a (k, *grid.shape) batch."""
    flat = (np.fft.rfftn(values, axes=range(1, grid.d + 1)) * grid.cell).reshape(len(values), -1)
    return np.concatenate([flat.real, flat.imag], axis=1)


def stacked_half_spectra(fs: list[TestFunction]) -> np.ndarray:
    """Rows X_f = rows(Re f) + i rows(Im f) of fs (rows = half_spectrum_rows; Im f = 0: rows(Re f)),
    float64 if every f is real; the uncached from one batched rfftn, copied into their caches."""
    grid = common_grid(fs)
    todo = list({id(f): f for f in fs if f._half is None}.values())
    if todo:
        split = [[f.values.real, f.values.imag][:1 + f.values.imag.any()] for f in todo]
        rows = iter(half_spectrum_rows(grid, np.array([p for ps in split for p in ps])))
        for f, ps in zip(todo, split):
            f._half = next(rows).copy() if len(ps) == 1 else next(rows) + 1j * next(rows)
            f._half.setflags(write=False)
    return np.stack([f._half for f in fs])


_IMAGES = np.arange(-3, 4).reshape(7, 1, 1, 1)  # images beyond +-3L are < exp(-50) here


def gaussian_packet(grid: Grid, center, width: float, momentum=None) -> TestFunction:
    """Periodized Gaussian envelope times plane wave, unit discrete L2 norm.

        f(x) ~ sum_images exp(-(x - c + mL)^2 / (2 w^2) + i p.(x - c + mL))

    `center` and `width` are physical lengths; `momentum` is a wave vector
    (multiples of 2 pi / L keep the plane wave seam-free).  Requires
    2a <= width <= L/4 so the packet is both resolvable and wrap-safe.
    """
    c = np.atleast_1d(np.asarray(center, dtype=float))
    if c.shape != (grid.d,):
        raise DomainError(f"center must have {grid.d} components, got {c.shape}")
    if momentum is None:
        p = np.zeros(grid.d)
    else:
        p = np.atleast_1d(np.asarray(momentum, dtype=float))
        if p.shape != (grid.d,):
            raise DomainError(f"momentum must have {grid.d} components, got {p.shape}")
    if width < 2 * grid.spacing * (1 - 1e-12):
        raise DomainError(
            f"width {width} is not resolvable: need >= 2*spacing = {2 * grid.spacing}"
        )
    if width > grid.extent / 4 * (1 + 1e-12):
        raise DomainError(
            f"width {width} exceeds L/4 = {grid.extent / 4}: wrap-around not negligible"
        )
    vals = packet_values(grid, c[None], [width], p[None])
    vals.setflags(write=False)
    return TestFunction(grid, vals[0], copy=False)


def packet_values(grid: Grid, centers, widths, momenta) -> np.ndarray:
    """gaussian_packet(grid, centers[j], widths[j], momenta[j]).values, bit for
    bit, as the rows of one (k, *grid.shape) array; (k, d) centers and momenta,
    unchecked widths.  Arithmetic that leaves float64 is silent: its rows come
    out non-finite, and TestFunction refuses them."""
    k, n = len(widths), grid.n_per_axis
    # Python's w ** 2 is libm pow, which can differ from numpy's square in the last bit
    two_w2 = np.array([2.0 * w ** 2 for w in widths]).reshape(k, 1, 1)
    with np.errstate(all="ignore"):
        # xi[m, j, i]: axis i of row j at image m, summed from 0 in order (outermost axis)
        xi = (grid.axis_coordinates() - centers[..., None]) + _IMAGES * grid.extent
        terms = np.exp(-(xi ** 2) / two_w2 + (1j * momenta)[..., None] * xi)
        axes = np.add.reduce(terms, axis=0, initial=0j)
        vals = axes[:, 0].copy()   # an owner in 1-D too, so a read-only vals has read-only rows
        for i in range(1, grid.d):
            vals = vals[..., None] * axes[:, i].reshape((k,) + (1,) * i + (n,))
        sq = np.abs(vals.reshape(k, -1))
        sq *= sq
        norms = np.sqrt(grid.cell * np.add.reduce(sq, axis=1))
        vals *= (1.0 / norms).reshape((k,) + (1,) * grid.d)
    return vals


def packet_from_doc(grid: Grid, doc: dict, ctx: str) -> TestFunction:
    """gaussian_packet from a {center, width, momentum?} document, checked."""
    require_keys(doc, ["center", "width"], ["momentum"], ctx)

    def numbers(key):
        value = doc[key]
        if isinstance(value, list):
            return [json_number(v, f"{ctx}.{key}[{i}]") for i, v in enumerate(value)]
        return json_number(value, f"{ctx}.{key}")

    momentum = None if doc.get("momentum") is None else numbers("momentum")
    center, width = numbers("center"), float(json_number(doc["width"], f"{ctx}.width"))
    try:
        return gaussian_packet(grid, center, width, momentum)
    except DomainError as exc:    # a shape, a width, or values that leave float64
        raise type(exc)(f"{ctx}: {exc}") from None


def site_indicator(grid: Grid, site) -> TestFunction:
    """Unit-norm function supported on a single site (maximal localization)."""
    idx = tuple(int(s) % grid.n_per_axis for s in np.atleast_1d(site))
    if len(idx) != grid.d:
        raise DomainError(f"site must have {grid.d} components, got {len(idx)}")
    vals = np.zeros(grid.shape, dtype=np.complex128)
    vals[idx] = 1.0 / math.sqrt(grid.cell)
    return TestFunction(grid, vals)


@dataclass(frozen=True)
class Isometry:
    """A lattice isometry, applied by exact site permutation.

    kinds:
      'translation'      params = integer site offsets, one per axis
      'rotation'         params = (i, j): 90-degree turn in the oriented
                         (i, j) coordinate plane
      'axis_reflection'  params = (axis,): x_axis -> -x_axis through 0
      'time_reflection'  link reflection t -> -a - t (site n0 -> N-1-n0)
    """

    kind: str
    params: tuple[int, ...] = ()

    @staticmethod
    def translation(offsets) -> "Isometry":
        return Isometry("translation", tuple(int(o) for o in np.atleast_1d(offsets)))

    @staticmethod
    def rotation(axis_i: int, axis_j: int) -> "Isometry":
        return Isometry("rotation", (int(axis_i), int(axis_j)))

    @staticmethod
    def axis_reflection(axis: int) -> "Isometry":
        return Isometry("axis_reflection", (int(axis),))

    @staticmethod
    def time_reflection() -> "Isometry":
        return Isometry("time_reflection")


def negate_axes(v: np.ndarray, axes) -> np.ndarray:
    """v read at -n: the index map n -> (-n) mod N along an axis or a tuple of axes,
    an exact permutation (on a transform's axes, f^(k) -> f^(-k))."""
    return np.roll(np.flip(v, axis=axes), 1, axis=axes)


def apply_isometry(f: TestFunction, iso: Isometry) -> TestFunction:
    """Pull back f along the isometry: (g.f)(x) = f(g^-1 x).  Exact permutation."""
    g, v = f.grid, f.values
    if iso.kind == "translation":
        if len(iso.params) != g.d:
            raise DomainError(
                f"translation needs {g.d} offsets, got {len(iso.params)}"
            )
        out = np.roll(v, shift=iso.params, axis=tuple(range(g.d)))
    elif iso.kind == "time_reflection":
        out = np.flip(v, axis=TIME_AXIS)
    elif iso.kind == "axis_reflection":
        if len(iso.params) != 1 or not 0 <= iso.params[0] < g.d:
            raise DomainError(f"bad axis_reflection params {iso.params}")
        out = negate_axes(v, iso.params[0])
    elif iso.kind == "rotation":
        if g.d < 2:
            raise DomainError("rotations need d >= 2")
        if len(iso.params) != 2:
            raise DomainError(f"rotation needs an axis pair, got {iso.params}")
        i, j = iso.params
        if i == j or not (0 <= i < g.d and 0 <= j < g.d):
            raise DomainError(f"bad rotation plane {iso.params}")
        out = np.swapaxes(negate_axes(v, j), i, j)
    else:
        raise DomainError(f"unknown isometry kind {iso.kind!r}")
    return TestFunction(g, out, copy=True)


def positive_time_slices(grid: Grid) -> np.ndarray:
    """Mask of the time slices with signed time >= a/2: with the link-reflection
    placement, the strictly positive slices t in {a, ..., (N/2-1) a}."""
    return grid.signed_axis_coordinates() >= grid.spacing / 2


def positive_time_support(f: TestFunction) -> bool:
    """True iff f vanishes (|.| <= REALITY_TOL) off the positive_time_slices."""
    off = ~positive_time_slices(f.grid)   # never empty: site 0 sits at t = 0
    return float(np.max(np.abs(f.values[off]))) <= REALITY_TOL


def positive_time_parts(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Each row of a complex (k, *grid.shape) batch cut to the positive_time_slices (a complex
    multiply by the mask, which keeps signed zeros) at unit norm, read-only: the gate for
    reflection tests.  A row with no support there raises DomainError."""
    keep = positive_time_slices(grid).reshape((1, -1) + (1,) * (grid.d - 1))
    flat = (values * keep).reshape(len(values), -1)
    norms = l2_norms(grid, flat)
    if not norms.all():
        raise DomainError("function has no support at positive times")
    out = flat * np.array([complex(1.0 / nm) for nm in norms])[:, None]
    out.setflags(write=False)   # so its rows are wrapped without a copy
    return out.reshape(values.shape)
