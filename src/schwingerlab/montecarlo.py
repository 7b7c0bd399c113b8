"""Sampling realization of the field measures behind the functionals.

A quasi-free leaf is the law of a centered Gaussian field with covariance
sum_atoms w / (khat^2 + m^2); it is drawn spectrally: one white-noise field
per atom j, shaped on the rfftn half grid by the amplitude row amp_j =
sqrt(w_j / (a^d (khat^2 + m_j^2))), read off propagator's one half-grid
table, so sum_j amp_j^2 a^d is the leaf's covariance symbol.  A sample's
field is irfftn(sum_j amp_j rfftn(white_j)), the spectra summed in atom
order.  A mixture is sampled by first drawing a leaf with its path weight,
then drawing that leaf's Gaussian, so empirical moments of phi(f) estimate
the model's analytic moments.

There is one draw path, `_Stream.draw`, with two consumers: `pair_values`
and `sample_stream`.  `sample_stream` yields each sample as a (component,
values) tuple, values a float64 array on the grid; `write_samples` writes
each as a text row of `%.17g` numbers, 17 significant digits that read back
bit for bit (dumps are write-only).

`pair_values` never builds the fields.  amp_j is real and even, so C_j =
irfftn amp_j rfftn is a real symmetric matrix and

    Re phi(f) = a^d <sum_j C_j white_j, Re f> = sum_j <white_j, r_j>,
    r_j = a^d irfftn(amp_j rfftn(Re f)).

Re f is transformed once per call and filtered in one batched irfftn per
leaf; each sample then costs its random draws and one dot product with the
picked leaf's rows r_j.

Randomness is counter based: every sample owns a Philox stream keyed by
(seed, sample index), and sites are consumed in a fixed row-major order,
so streams are bit-reproducible no matter how sample generation is
scheduled.  A stream uses one generator and keeps the state dict it
reports at the start of stream 0, whose key array the stream owns; per
sample it writes the index into the key's stream word and assigns the dict
back, which gives the same bits as a fresh `rng_from_seed(seed, index)`.
A sample draws one `random()` to pick the leaf (none for a single leaf),
then the leaf's k white-noise fields as one (k,) + grid.shape block, the
same numbers as k sequential draws.
"""

from __future__ import annotations

import bisect
import itertools
import math
from typing import Iterator

import numpy as np

from .errors import DomainError
from .fixtures import rng_from_seed
from .functional import SchwingerFunctional, model_to_dict
from .lattice import Grid, TestFunction
from .propagator import inverse_propagators
from .serialize import canonical_digest

# samples per run: about 26 s of pair_values; a dump on 32^2 holds about
# 21 KB of text per sample (16.0 MiB for 800 samples)
MAX_SAMPLE_COUNT = 1_000_000


def model_digest(G: SchwingerFunctional, grid: Grid) -> str:
    return canonical_digest({"model": model_to_dict(G), "grid": grid.as_dict()})


class _Stream:
    """The draws of one model on one grid along the Philox streams of a seed.

    Built once per stream from the atom table: the cumulative leaf weights,
    each leaf's amplitude rows amp_j on the half grid, one per atom of
    positive weight in mass order, the shape of its white-noise block, and
    the Philox state of stream 0.  Amplitudes that leave float64 raise DomainError.
    """

    def __init__(self, G: SchwingerFunctional, grid: Grid, seed: int):
        weights, masses, atoms = G._atom_table
        table = inverse_propagators(grid, masses)
        half = grid.shape[:-1] + (grid.n_per_axis // 2 + 1,)
        self.cum_weights = list(itertools.accumulate(weights.tolist()))
        with np.errstate(over="ignore", invalid="ignore"):   # non-finite amplitudes raise below
            self.amps = [np.sqrt(a[a > 0, None] * table[a > 0] / grid.cell).reshape((-1,) + half)
                         for a in atoms]
        if not all(np.isfinite(amps).all() for amps in self.amps):
            raise DomainError("sampler amplitudes leave float64: the atom weights are too large")
        self.shapes = [(len(amps),) + grid.shape for amps in self.amps]
        self.rng = rng_from_seed(seed)
        self.state = self.rng.bit_generator.state   # a fresh dict: its key is ours
        self.key = self.state["state"]["key"]

    def draw(self, index: int) -> tuple[int, np.ndarray]:
        """(component, white): the picked leaf and one white-noise field per atom."""
        self.key[0] = index % (1 << 64)
        self.rng.bit_generator.state = self.state
        component = 0
        if len(self.cum_weights) > 1:
            u = self.rng.random() * self.cum_weights[-1]
            component = min(bisect.bisect_right(self.cum_weights, u),
                            len(self.cum_weights) - 1)
        return component, self.rng.standard_normal(self.shapes[component])


def sample_stream(G: SchwingerFunctional, grid: Grid, seed: int,
                  count: int) -> Iterator[tuple[int, np.ndarray]]:
    """(component, values) for samples 0..count-1, drawn lazily: the picked leaf and its real
    field irfftn(sum_j amp_j rfftn(white_j)), summed in atom order.  The stream is built
    by this call, so a model it refuses raises here, before the first sample."""
    stream = _Stream(G, grid, seed)
    batch, field = tuple(range(1, grid.d + 1)), tuple(range(grid.d))
    draws = map(stream.draw, range(count))
    return ((c, np.fft.irfftn((stream.amps[c] * np.fft.rfftn(white, axes=batch)).sum(axis=0),
                              s=grid.shape, axes=field)) for c, white in draws)


def estimate_fourth_cumulant(pairings: np.ndarray) -> tuple[float, float]:
    """kappa4 = E x^4 - 3 (E x^2)^2 for a centered scalar sample, with a
    delete-one jackknife error (vectorized through the moment sums); both are taken on x 2^-e,
    e the exponent of frexp(max |x|), and scaled back by the exact 2^4e, so neither underflows."""
    x = np.asarray(pairings, dtype=np.float64)
    n = x.shape[0]
    if n < 3:
        raise DomainError("need at least three samples")
    e = math.frexp(float(np.max(np.abs(x))))[1]
    x = np.ldexp(x, -e)
    x2, x4 = x * x, x ** 4
    s2, s4 = x2.sum(), x4.sum()
    est = s4 / n - 3.0 * (s2 / n) ** 2
    m2_loo = (s2 - x2) / (n - 1)
    m4_loo = (s4 - x4) / (n - 1)
    k_loo = m4_loo - 3.0 * m2_loo ** 2
    center = k_loo.mean()
    var = (n - 1) / n * np.sum((k_loo - center) ** 2)
    return math.ldexp(float(est), 4 * e), math.ldexp(math.sqrt(var), 4 * e)


def pair_values(G: SchwingerFunctional, grid: Grid, f: TestFunction,
                seed: int, count: int) -> np.ndarray:
    """Re phi(f) along the sample stream, one dot product per sample with
    the filtered rows r_j of the module docstring (no field is built)."""
    if f.grid != grid:
        raise DomainError("test function lives on a different grid")
    stream = _Stream(G, grid, seed)
    axes = tuple(range(1, grid.d + 1))
    f_half = np.fft.rfftn(f.values.real)
    rows = [grid.cell * np.fft.irfftn(amps * f_half, s=grid.shape, axes=axes).ravel()
            for amps in stream.amps]
    out = np.empty(count, dtype=np.float64)
    for index in range(count):
        component, white = stream.draw(index)
        out[index] = white.ravel() @ rows[component]
    return out


# ---------------------------------------------------------------------------
# Sample dumps (text, portable)
# ---------------------------------------------------------------------------

def write_samples(path, G: SchwingerFunctional, grid: Grid, seed: int,
                  count: int) -> None:
    """Dump `count` samples of the stream, each written as it is drawn; the
    stream is built before the file is opened."""
    if count < 1:
        raise DomainError("nothing to write")
    samples = sample_stream(G, grid, seed, count)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("fieldsamples v1\n")
        fh.write(f"model_digest={model_digest(G, grid)} d={grid.d} "
                 f"n_per_axis={grid.n_per_axis} spacing={float(grid.spacing)!r} "
                 f"seed={seed} count={count}\n")
        row = " ".join(["%.17g"] * grid.volume) + "\n"
        for index, (component, values) in enumerate(samples):
            fh.write(f"sample index={index} component={component}\n")
            fh.write(row % tuple(values.ravel().tolist()))

