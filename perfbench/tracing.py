"""Span tracing of the package's layers from outside the package.

`Tracer.install()` replaces every public function of the package modules
(and the public methods of the classes they define) with a wrapper that
records a span: name, start, end, parent span and op id.  It also wraps
`numpy.fft.fftn`/`ifftn` and the draws of `numpy.random.Generator`, so FFT
and random-number work show as their own spans.  Every module namespace
that imported a function by name gets the wrapper too, so calls between
modules are seen.  Generator functions are counted, not timed: their work
happens in the consumer's frames.

Spans stay in memory and are written out with `dump()`; `per_layer()`
turns them into self times and counts.  A span's self time is its
duration minus its children's durations.

Which end-to-end metric each group of per-layer metrics should move, and
on which workload:

  lattice.*                    op_p50_s on axiom_suite; the FFT ones also
                               ops_per_s on mc_stream
  propagator.*                 op_p50_s, op_tail_s on axiom_suite, and on
                               cumulant_orders through Gram builds
  functional.evaluate*, leaf_evaluations, leaves_walks
                               op_p50_s on axiom_suite
  functional.moment_*, cumulant*, growth_check_s
                               op_p50_s, op_tail_s on cumulant_orders
  partitions.*                 op_tail_s on cumulant_orders
  axioms.*                     op_p50_s on axiom_suite
  fixtures.*                   setup_s everywhere, ops_per_s on mc_stream
  montecarlo.* (but write_samples_s)
                               ops_per_s on mc_stream, never peak_rss_mb
  montecarlo.write_samples_s, serialize.*, cli.bytes_written
                               op_tail_s on cli_session
  cli.*_s, experiments.*       op_p50_s on cli_session

Predictions for the open ROADMAP items: the Monte Carlo hot path (item 2)
moves mc_stream and leaves axiom_suite and cumulant_orders unchanged; the
single Gram kernel (item 3) moves axiom_suite and cumulant_orders and
leaves mc_stream unchanged; exact cumulants by conditioning (item 4) move
cumulant_orders only; the run trace (item 5) moves nothing.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import sys
import time

import numpy as np

LAYERS = ("partitions", "lattice", "propagator", "functional", "axioms",
          "montecarlo", "fixtures", "experiments", "serialize", "cli")
# TestFunction dunders that do array work; other dunders are left alone.
_OPERATORS = ("__init__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__")
_RANDOM_DRAWS = ("standard_normal", "random", "uniform", "integers", "dirichlet")
OP_SPAN = "bench.op"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []      # [name_id, start, end, parent, op]
        self._stack = [-1]
        self.op = -1
        self.counts: dict[str, int] = {}
        self.pairing_orders: list[tuple[int, int]] = []   # (op, n) per pairings call
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, hook=None):
        nid = self.name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            rec = [nid, clock(), 0.0, stack[-1], self.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
        return traced

    def span(self, name: str, start: float, end: float) -> None:
        """Record a finished span under the current parent."""
        self.spans.append([self.name_id(name), start, end, self._stack[-1], self.op])

    def begin_op(self, op: int) -> None:
        self.op = op
        self.op_index = len(self.spans)
        self._op_rec = [self.name_id(OP_SPAN), time.perf_counter(), 0.0, -1, op]
        self._stack.append(self.op_index)
        self.spans.append(self._op_rec)

    def end_op(self) -> None:
        self._op_rec[2] = time.perf_counter()
        self._stack.pop()

    def _count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _hooks(self) -> dict:
        def atoms(args, kwargs):
            rho = args[2] if len(args) > 2 else kwargs["rho"]
            self._count("propagator.atom_terms", len(rho.atoms))

        def one_atom(args, kwargs):
            self._count("propagator.atom_terms", 1)

        def order(args, kwargs):
            self.pairing_orders.append((self.op, args[0] if args else kwargs["n"]))
        return {"propagator.spectral_two_point": atoms,
                "propagator.free_two_point": one_atom,
                "partitions.pairings": order}

    def install(self) -> None:
        import numpy.fft
        import numpy.random
        import schwingerlab

        mods = {layer: importlib.import_module(f"schwingerlab.{layer}") for layer in LAYERS}
        hooks = self._hooks()
        gen_codes = set()

        def make(name, fn):
            if not inspect.isgeneratorfunction(fn):
                return self.wrap(name, fn, hooks.get(name))
            gen_codes.add(fn.__code__)

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                # a nested walk is created from inside the same generator's body
                if sys._getframe(1).f_code not in gen_codes:
                    self._count(name)
                return fn(*args, **kwargs)
            return counted

        replaced: dict[int, tuple] = {}   # id(original) -> (original, wrapper)
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj, make)
                elif inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    replaced[id(obj)] = (obj, make(f"{layer}.{attr}", obj))
        # every namespace that imported a function by name calls the wrapper
        for mod in list(mods.values()) + [schwingerlab]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and replaced[id(obj)][0] is obj:
                    self._set(mod, attr, replaced[id(obj)][1])

        for attr in ("fftn", "ifftn"):
            self._set(numpy.fft, attr, self.wrap(f"numpy.fft.{attr}", getattr(numpy.fft, attr)))
        traced_generator = type("Generator", (numpy.random.Generator,), {
            attr: self.wrap(f"numpy.random.{attr}", getattr(numpy.random.Generator, attr))
            for attr in _RANDOM_DRAWS})
        self._set(numpy.random, "Generator", traced_generator)

    def _wrap_class(self, layer, cls, make) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr == "__init__":
                if dataclasses.is_dataclass(cls):
                    continue   # generated field assignment, no work of its own
            elif attr.startswith("_") and not (cls.__name__ == "TestFunction"
                                               and attr in _OPERATORS):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                self._set(cls, attr, staticmethod(make(name, raw.__func__)))
            elif isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(make(name, raw.__func__)))
            elif inspect.isfunction(raw):
                self._set(cls, attr, make(name, raw))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- output ------------------------------------------------------------

    def arrays(self) -> dict:
        rec = np.array(self.spans, dtype=np.float64).reshape(-1, 5)
        return {"name": rec[:, 0].astype(np.int32), "start": rec[:, 1],
                "end": rec[:, 2], "parent": rec[:, 3].astype(np.int64),
                "op": rec[:, 4].astype(np.int64)}

    def dump(self, path) -> None:
        """Write spans, names and counters (npz; names/counters as JSON)."""
        meta = {"names": self.names, "counts": self.counts,
                "pairing_orders": self.pairing_orders}
        np.savez(path, meta=np.array(json.dumps(meta)), **self.arrays())

    def absorb(self, path, parent: int, op: int) -> float:
        """Append the spans a child process dumped, under span `parent`;
        returns the end of the child's last span."""
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"]))
            ids = np.array([self.name_id(n) for n in meta["names"]], dtype=np.int64)
            base = len(self.spans)
            par = data["parent"]
            par = np.where(par < 0, parent, par + base)
            for nid, s, e, p in zip(ids[data["name"]], data["start"], data["end"], par):
                self.spans.append([int(nid), float(s), float(e), int(p), op])
            last = float(data["end"].max())
        for key, n in meta["counts"].items():
            self._count(key, n)
        self.pairing_orders += [(op, n) for _, n in meta["pairing_orders"]]
        return last


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

AXIOM_CHECKS = {
    "normalization_neutrality": "axioms.check_normalization_neutrality",
    "reflection_positivity": "axioms.check_reflection_positivity",
    "stochastic_positivity": "axioms.check_stochastic_positivity",
    "euclidean_invariance": "axioms.check_euclidean_invariance",
    "cluster": "axioms.check_cluster_defect",
}
FFT = ("numpy.fft.fftn", "numpy.fft.ifftn")
EVALUATE = ("functional.QuasiFree.evaluate", "functional.Mixture.evaluate")
SAMPLE = ("montecarlo.sample_mixture_field", "montecarlo.sample_free_field")
RNG = ("fixtures.rng_from_seed",) + tuple(f"numpy.random.{a}" for a in _RANDOM_DRAWS)


class SpanTable:
    """Self times, counts and ancestry queries over one run's spans."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = tracer.names
        self.name, self.parent = a["name"], a["parent"]
        self.dur = a["end"] - a["start"]
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                            minlength=len(self.dur))
        self.self_time = self.dur - child
        self.by_name = {n: np.flatnonzero(self.name == i) for i, n in enumerate(self.names)}

    def idx(self, *names) -> np.ndarray:
        parts = [self.by_name.get(n, np.empty(0, dtype=np.int64)) for n in names]
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)

    def count(self, *names) -> int:
        return int(self.idx(*names).size)

    def self_s(self, *names) -> float:
        return float(self.self_time[self.idx(*names)].sum())

    def incl_s(self, *names) -> float:
        return float(self.dur[self.idx(*names)].sum())

    def under(self, *names) -> np.ndarray:
        """Mask of spans that lie inside (or are) a span with one of `names`."""
        flag = np.zeros(len(self.dur), dtype=bool)
        flag[self.idx(*names)] = True
        parent = self.parent
        for i in range(len(flag)):      # parents precede their children
            if not flag[i] and parent[i] >= 0 and flag[parent[i]]:
                flag[i] = True
        return flag

    def layer_self(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for i, n in enumerate(self.names):
            layer = n.split(".")[0] if not n.startswith("numpy.") else ".".join(n.split(".")[:2])
            if n == OP_SPAN:
                layer = "unattributed"
            out[layer] = out.get(layer, 0.0) + float(self.self_time[self.name == i].sum())
        return out


def per_layer(tracer: Tracer) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics (counts and self times per op, stage times per
    call) and the self time of each layer summed over the run."""
    t = SpanTable(tracer)
    per_op = 1.0 / max(t.count(OP_SPAN), 1)

    def ratio(a, b):
        return a / b if b else 0.0

    inside_suite = t.under("axioms.run_axiom_suite")
    inside_sample = t.under(*SAMPLE)
    suites = t.count("axioms.run_axiom_suite")
    samples = t.count(*SAMPLE)
    fft_idx = t.idx(*FFT)
    eval_idx = t.idx(*EVALUATE)
    eval_names = {t.names.index(n) for n in EVALUATE if n in t.names}
    outer_eval = np.array([i for i in eval_idx
                           if t.parent[i] < 0 or int(t.name[t.parent[i]]) not in eval_names],
                          dtype=np.int64)
    rng_idx = t.idx(*RNG)
    per_op_orders: dict[int, list[int]] = {}
    for op, n in tracer.pairing_orders:
        per_op_orders.setdefault(op, []).append(n)
    distinct = [len(set(v)) / len(v) for v in per_op_orders.values()]

    m = {
        "lattice.fftn_calls": t.count("numpy.fft.fftn") * per_op,
        "lattice.ifftn_calls": t.count("numpy.fft.ifftn") * per_op,
        "lattice.fft_s": t.self_s(*FFT) * per_op,
        "lattice.testfunction_calls": sum(
            t.count(n) for n in t.names if n.startswith("lattice.TestFunction.")) * per_op,
        "lattice.testfunction_s": sum(
            t.self_s(n) for n in t.names if n.startswith("lattice.TestFunction.")) * per_op,
        "lattice.apply_isometry_s": t.self_s("lattice.apply_isometry") * per_op,
        "lattice.gaussian_packet_s": t.self_s("lattice.gaussian_packet") * per_op,
        "propagator.two_point_calls": t.count("propagator.spectral_two_point",
                                              "propagator.free_two_point") * per_op,
        "propagator.atom_terms": tracer.counts.get("propagator.atom_terms", 0) * per_op,
        "propagator.two_point_s": t.self_s("propagator.spectral_two_point",
                                           "propagator.free_two_point") * per_op,
        "functional.evaluate_calls": outer_eval.size * per_op,
        "functional.leaf_evaluations": t.count("functional.QuasiFree.evaluate") * per_op,
        "functional.leaves_walks": (tracer.counts.get("functional.Mixture.leaves", 0)
                                    + tracer.counts.get("functional.QuasiFree.leaves", 0)) * per_op,
        "functional.evaluate_s": t.self_s(*EVALUATE) * per_op,
        "functional.moment_analytic_s": t.self_s("functional.moment_analytic") * per_op,
        "functional.cumulant_s": t.self_s("functional.cumulant") * per_op,
        "functional.cumulant_scale_s": t.self_s("functional.cumulant_scale") * per_op,
        "functional.moment_numeric_s": t.self_s("functional.moment_numeric") * per_op,
        "functional.growth_check_s": t.self_s("functional.moment_growth_check") * per_op,
        "partitions.pairings_calls": t.count("partitions.pairings") * per_op,
        "partitions.pairings_distinct_ratio": float(np.mean(distinct)) if distinct else 0.0,
        "partitions.pairings_s": t.self_s("partitions.pairings") * per_op,
        "partitions.transform_calls": t.count("partitions.cumulants_from_moments",
                                              "partitions.moments_from_cumulants") * per_op,
        "partitions.transform_s": t.self_s("partitions.cumulants_from_moments",
                                           "partitions.moments_from_cumulants") * per_op,
        "axioms.suite_s": ratio(t.incl_s("axioms.run_axiom_suite"), suites),
    }
    for check_id, fn in AXIOM_CHECKS.items():
        idx = t.idx(fn)
        m[f"axioms.{check_id}_s"] = ratio(float(t.dur[idx[inside_suite[idx]]].sum()), suites)
    m["axioms.evaluations_per_suite"] = ratio(int(inside_suite[outer_eval].sum()), suites)
    m["axioms.ffts_per_suite"] = ratio(int(inside_suite[fft_idx].sum()), suites)
    m["fixtures.rng_streams"] = t.count("fixtures.rng_from_seed") * per_op
    m["fixtures.random_function_s"] = t.self_s(
        "fixtures.random_real_function", "fixtures.random_positive_time_function") * per_op
    m["montecarlo.samples"] = samples * per_op
    m["montecarlo.us_per_sample"] = 1e6 * ratio(t.incl_s(*SAMPLE), samples)
    m["montecarlo.rng_us_per_sample"] = 1e6 * ratio(float(
        t.self_time[rng_idx[inside_sample[rng_idx]]].sum()), samples)
    m["montecarlo.ffts_per_sample"] = ratio(int(inside_sample[fft_idx].sum()), samples)
    m["montecarlo.pair_us_per_sample"] = 1e6 * ratio(
        t.incl_s("montecarlo.FieldSample.pair"), t.count("montecarlo.FieldSample.pair"))
    m["montecarlo.estimate_s"] = t.incl_s("montecarlo.estimate_fourth_cumulant",
                                          "montecarlo.estimate_moment") * per_op
    m["montecarlo.write_samples_s"] = t.self_s("montecarlo.write_samples") * per_op
    m["serialize.digest_calls"] = t.count("serialize.canonical_digest") * per_op
    m["serialize.digest_s"] = t.self_s("serialize.canonical_digest",
                                       "serialize.canonical_json") * per_op
    m["serialize.json_write_s"] = t.self_s("serialize.write_json") * per_op
    for key, fn in (("two_mass", "experiments.run_two_mass_fourth_cumulant"),
                    ("iteration", "experiments.run_iteration"),
                    ("refinement", "experiments.run_refinement_study")):
        m[f"experiments.{key}_s"] = ratio(t.incl_s(fn), t.count(fn))
    return m, t.layer_self()
