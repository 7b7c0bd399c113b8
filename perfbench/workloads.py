"""The four benchmark workloads: inputs, one operation each, output checks.

Every workload draws its inputs from the reference bank in
`reference.json`.  The bank holds fixed inputs (model trees as model
documents, test functions as packet parameters, stream seeds, CLI
argument lists) together with the outputs the program produced for them
when the bank was recorded (`record.py`).  The workload seed orders the
bank entries into a run's cycles, so every timed operation has a stored
reference to be checked against, while different seeds run different
trees, functions and streams at the same point of a run.

The model trees are a seeded pool: the first 48 draws of
`random_model_tree(rng, max_depth=3)` at seed 424242, in their natural
proportions: 27% single leaves, 54% with 4-6 leaves, up to 9 leaves and
18 atoms (over 20000 draws the two shares are 34% and 41%).  Sorted by
(leaves, atoms), which orders a tree's evaluation cost, the pool falls
into 12 quantile blocks of 4 trees, and bank entries are grouped into
strata: a block (with the grid for axiom_suite, with the equal or
distinct argument case for cumulant_orders), a model kind and, for the
depth-3 pool trees, a quartile of sampling cost for mc_stream, and a
command for the CLI.  A cycle takes one entry of every stratum, a proportional
stratified sample of the pool, and successive cycles rotate through each
stratum's entries in a seeded order.  The input mix of every cycle, and
over whole rotations the set of inputs, is then the same for every seed;
only a run's last, partial rotation and the order of ops depend on it.
Without the rotation the heaviest op of a cycle would be one seeded pick
from the top block, and op_tail_s would follow that pick.

The checks never demand bit-identical floats: later changes may reorder
arithmetic.  Tolerances:

* axiom flags identical, witnesses within 1e-9 * max(|ref|, |tolerance|)
  plus 1e-13 absolute (WITNESS_ATOL);
* moments and cumulants within 1e-10 * the moment scale of their order,
  finite-difference moments within the program's own documented
  finite-difference schedule times that scale.  The moment scale of order
  n is the larger of cumulant_scale and prod_i sqrt(S_2(f_i, f_i)), the
  natural size of an order-n moment (a Gaussian mixture's |S_n| is at most
  (n-1)!! times that product for real f_i).  The product is the floor for
  odd orders, whose cumulant_scale is 0 (every partition of an odd set has
  an odd block) and whose values are roundoff residue;
* pair values within 1e-12 of the largest |reference| pair value of the
  op, and the pooled two-mass fourth cumulant of a run's mixture streams
  within 3 sigma of the closed form;
* CLI: expected exit code, the same tolerances on machine-JSON numbers
  (experiment values within 1e-9 relative plus 1e-13 absolute), and
  every rerun of a command inside one benchmark run byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

# Program functions are called through their modules, so the span
# wrappers that tracing.py installs on the modules see these calls too.
from schwingerlab import axioms, functional, lattice, montecarlo
from schwingerlab.functional import NUMERIC_TOLERANCE_SCHEDULE
from schwingerlab.lattice import Grid, TestFunction

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

GRID2 = {"d": 2, "n_per_axis": 32, "spacing": 0.25}
GRID3 = {"d": 3, "n_per_axis": 16, "spacing": 0.5}
PACKET = {"center": [4.0, 4.0], "width": 1.0}  # the acceptance probe on GRID2
MC_BATCH = 128           # samples per mc_stream op
MOMENT_ORDER = 8         # cumulant_orders table order, as `moments --order 8`
GROWTH_TRIALS = 4

WITNESS_RTOL = 1e-9
# Axiom witnesses are differences or eigenvalues of O(1) functional values,
# so a witness at roundoff level moves by ~1e-16 when arithmetic is
# reordered; 1e-13 absolute stays far below every axiom tolerance.
WITNESS_ATOL = 1e-13
MOMENT_RTOL = 1e-10
PAIR_RTOL = 1e-12


def grid_of(doc: dict) -> Grid:
    return Grid(doc["d"], doc["n_per_axis"], doc["spacing"])


def grid_key(doc: dict) -> str:
    return f"{doc['d']},{doc['n_per_axis']},{doc['spacing']}"


def load_bank() -> dict:
    with open(REFERENCE, encoding="ascii") as fh:
        return json.load(fh)


def build_function(grid: Grid, spec: list[dict]) -> TestFunction:
    """Normalized real part of a weighted sum of packets (bank encoding of
    the random real test functions)."""
    vals = np.zeros(grid.shape, dtype=np.complex128)
    for p in spec:
        vals = vals + p["coeff"] * lattice.gaussian_packet(
            grid, p["center"], p["width"], p["momentum"]).values
    real = TestFunction(grid, vals.real)
    return (1.0 / real.l2_norm()) * real


def stratum_of(item) -> str:
    if isinstance(item, tuple):     # axiom_suite: (tree, grid)
        return f"{item[0]['stratum']}@{grid_key(item[1])}"
    return item["stratum"]


def stratified_cycles(rng: np.random.Generator, items: list) -> list[list]:
    """Cycles of one item per stratum, each in a seeded op order.

    Cycle j takes the j-th item (wrapping) of every stratum's items in a
    seeded order; over as many cycles as the largest stratum has items,
    every item runs.
    """
    strata: dict[str, list] = {}
    for e in items:
        strata.setdefault(stratum_of(e), []).append(e)
    orders = [[group[i] for i in rng.permutation(len(group))]
              for _, group in sorted(strata.items())]
    cycles = []
    for j in range(max(map(len, orders))):
        cycle = [order[j % len(order)] for order in orders]
        cycles.append([cycle[i] for i in rng.permutation(len(cycle))])
    return cycles


def _close(value: float, ref: float, tol: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= tol


def _cplx(pair) -> complex:
    return complex(pair[0], pair[1])


# ---------------------------------------------------------------------------
# axiom_suite
# ---------------------------------------------------------------------------

def suite_summary(result) -> dict:
    return {"passed": result.passed, "quasi_free": result.quasi_free,
            "reports": [{"check_id": r.check_id, "passed": r.passed,
                         "witness": r.witness, "tolerance": r.tolerance}
                        for r in result.reports]}


def check_suite(out: dict, ref: dict) -> list[str]:
    problems = []
    for key in ("passed", "quasi_free"):
        if out[key] != ref[key]:
            problems.append(f"{key} {out[key]} != reference {ref[key]}")
    if [r["check_id"] for r in out["reports"]] != [r["check_id"] for r in ref["reports"]]:
        return problems + ["check ids differ from reference"]
    for got, want in zip(out["reports"], ref["reports"]):
        if got["passed"] != want["passed"]:
            problems.append(f"{got['check_id']} passed={got['passed']}")
        scale = max(abs(want["witness"]), abs(want["tolerance"]))
        if not _close(got["witness"], want["witness"],
                      WITNESS_RTOL * scale + WITNESS_ATOL):
            problems.append(f"{got['check_id']} witness {got['witness']!r} "
                            f"vs reference {want['witness']!r}")
    return problems


class AxiomSuite:
    name = "axiom_suite"
    op_unit = "one run_axiom_suite call"

    def __init__(self, bank: dict, seed: int):
        trees = bank["axiom_suite"]
        self.cycles = stratified_cycles(np.random.default_rng(seed),
                                        [(t, g) for t in trees for g in (GRID2, GRID3)])
        self.models = {id(t): functional.model_from_dict(t["model"]) for t in trees}
        for g in (GRID2, GRID3):
            lattice.lattice_symbol(grid_of(g))

    def run(self, item):
        tree, g = item
        return suite_summary(axioms.run_axiom_suite(
            self.models[id(tree)], axioms.SuiteConfig(grid_of(g), seed=tree["suite_seed"])))

    def check(self, item, out) -> list[str]:
        tree, g = item
        return check_suite(out, tree["ref"][grid_key(g)])


# ---------------------------------------------------------------------------
# cumulant_orders
# ---------------------------------------------------------------------------

def moment_table(model, fs, grid: Grid) -> dict:
    rows = []
    for n in range(1, MOMENT_ORDER + 1):
        sub = fs[:n]
        m = functional.moment_analytic(model, sub)
        c = functional.cumulant(model, sub)
        row = {"n": n, "moment": [m.real, m.imag], "cumulant": [c.real, c.imag],
               "scale": functional.cumulant_scale(model, sub), "numeric": None}
        if n in NUMERIC_TOLERANCE_SCHEDULE:
            v = functional.moment_numeric(model, sub).value
            row["numeric"] = [v.real, v.imag]
        rows.append(row)
    growth = functional.moment_growth_check(model, grid, n_max=MOMENT_ORDER,
                                            trials=GROWTH_TRIALS)
    return {"rows": rows, "growth": {"passed": growth.passed, "k": growth.k}}


def moment_scale(cumulant_scale: float, norms: list[float]) -> float:
    """Tolerance scale of an order-len(norms) moment (see the module notes)."""
    return max(cumulant_scale, math.prod(norms))


def check_table(out: dict, ref: dict) -> list[str]:
    problems = []
    for got, want in zip(out["rows"], ref["rows"]):
        n = want["n"]
        scale = moment_scale(want["scale"], ref["norms"][:n])
        for key in ("moment", "cumulant"):
            if not _close(abs(_cplx(got[key]) - _cplx(want[key])), 0.0,
                          MOMENT_RTOL * scale):
                problems.append(f"n={n} {key} {got[key]} vs reference {want[key]}")
        if not _close(got["scale"], want["scale"], MOMENT_RTOL * scale):
            problems.append(f"n={n} cumulant_scale {got['scale']!r} vs {want['scale']!r}")
        if want["numeric"] is not None:
            tol = NUMERIC_TOLERANCE_SCHEDULE[n] * scale
            if not _close(abs(_cplx(got["numeric"]) - _cplx(want["numeric"])), 0.0, tol):
                problems.append(f"n={n} moment_numeric {got['numeric']} "
                                f"vs reference {want['numeric']}")
    g, r = out["growth"], ref["growth"]
    if g["passed"] != r["passed"] or not _close(g["k"], r["k"], WITNESS_RTOL * r["k"]):
        problems.append(f"growth {g} vs reference {r}")
    return problems


class CumulantOrders:
    name = "cumulant_orders"
    op_unit = "one order 1..8 moment/cumulant table plus moment_growth_check"

    def __init__(self, bank: dict, seed: int):
        self.grid = grid_of(GRID2)
        entries = bank["cumulant_orders"]
        self.cycles = stratified_cycles(np.random.default_rng(seed), entries)
        # Function values only: an op wraps them in fresh TestFunctions, so
        # no op reuses the Fourier transforms an earlier op cached on them
        # and memory does not grow with the number of inputs that have run.
        self.inputs = {}
        for e in entries:
            values = [build_function(self.grid, spec).values for spec in e["functions"]]
            self.inputs[id(e)] = (functional.model_from_dict(e["model"]), values)
        self.equal_share = sum(e["equal"] for e in self.cycles[0]) / len(self.cycles[0])
        lattice.lattice_symbol(self.grid)

    def run(self, item):
        model, values = self.inputs[id(item)]
        fs = [TestFunction(self.grid, v, copy=False) for v in values]
        return moment_table(model, fs, self.grid)

    def check(self, item, out) -> list[str]:
        return check_table(out, item["ref"])


# ---------------------------------------------------------------------------
# mc_stream
# ---------------------------------------------------------------------------

def check_pairs(values, ref_values) -> list[str]:
    ref = np.asarray(ref_values, dtype=np.float64)
    got = np.asarray(values, dtype=np.float64)
    if got.shape != ref.shape or not np.all(np.isfinite(got)):
        return [f"pair values shape {got.shape} or non-finite"]
    worst = float(np.max(np.abs(got - ref)))
    if worst > PAIR_RTOL * float(np.max(np.abs(ref))):
        return [f"pair values off by {worst:.3e}"]
    return []


class McStream:
    name = "mc_stream"
    op_unit = f"{MC_BATCH} samples: pair_values then estimate_fourth_cumulant"

    def __init__(self, bank: dict, seed: int):
        self.grid = grid_of(GRID2)
        self.packet = lattice.gaussian_packet(self.grid, PACKET["center"], PACKET["width"])
        streams = bank["mc_stream"]["streams"]
        self.cycles = stratified_cycles(np.random.default_rng(seed), streams)
        self.models = {id(e): functional.model_from_dict(e["model"]) for e in streams}
        self.closed_form = bank["mc_stream"]["mixture_closed_form_kappa4"]
        self.mixture_values: dict[int, np.ndarray] = {}
        lattice.lattice_symbol(self.grid)

    def run(self, item):
        xs = montecarlo.pair_values(self.models[id(item)], self.grid, self.packet,
                         item["stream_seed"], MC_BATCH)
        return xs, montecarlo.estimate_fourth_cumulant(xs)

    def check(self, item, out) -> list[str]:
        xs, (est, err) = out
        problems = check_pairs(xs, item["ref"]["pairs"])
        ref_est, ref_err = item["ref"]["kappa4"]
        if not _close(est, ref_est, WITNESS_RTOL * max(abs(ref_est), ref_err)):
            problems.append(f"kappa4 {est!r} vs reference {ref_est!r}")
        if item["kind"] == "mixture" and not problems:
            self.mixture_values[item["stream_seed"]] = xs
        return problems

    def run_checks(self) -> list[str]:
        """The two-mass fourth cumulant of the pooled distinct mixture
        streams that ran lies within 3 sigma of the closed form."""
        if not self.mixture_values:
            return ["no mixture stream passed its check"]
        pooled = np.concatenate([self.mixture_values[k]
                                 for k in sorted(self.mixture_values)])
        est, err = montecarlo.estimate_fourth_cumulant(pooled)
        if abs(est - self.closed_form) > 3.0 * err:
            return [f"pooled kappa4 {est:.6e} +- {err:.2e} is beyond 3 sigma of "
                    f"the closed form {self.closed_form:.6e}"]
        return []


# ---------------------------------------------------------------------------
# cli_session
# ---------------------------------------------------------------------------

def _compare_numbers(got, want, tol, path="") -> list[str]:
    """Same structure, strings and flags identical, numbers within tol(path, ref)."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys differ"]
        out = []
        for k in want:
            out += _compare_numbers(got[k], want[k], tol, f"{path}.{k}")
        return out
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs"]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out += _compare_numbers(g, w, tol, f"{path}[{i}]")
        return out
    if isinstance(want, bool) or not isinstance(want, (int, float)):
        return [] if got == want else [f"{path}: {got!r} != {want!r}"]
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        return [f"{path}: {got!r} is not a number"]
    return [] if _close(float(got), float(want), tol(path, want)) else \
        [f"{path}: {got!r} vs reference {want!r}"]


def _checks_tol(ref: dict):
    tols = {r["check_id"]: abs(r["tolerance"]) for r in ref["reports"]}

    def tol(path, want):
        # paths look like .reports[i].witness / .reports[i].details...
        idx = int(path.split("[")[1].split("]")[0]) if path.startswith(".reports[") else None
        floor = tols[ref["reports"][idx]["check_id"]] if idx is not None else 0.0
        return WITNESS_RTOL * max(abs(want), floor) + WITNESS_ATOL
    return tol


def _moments_tol(scales: list[float], norm: float):
    """Rows of `moments` for one function f repeated n times."""
    def tol(path, want):
        if path.startswith(".rows["):
            i = int(path.split("[")[1].split("]")[0])
            n = i + 1
            rtol = NUMERIC_TOLERANCE_SCHEDULE.get(n, MOMENT_RTOL) \
                if (".moment_numeric" in path or ".agreement_delta" in path) else MOMENT_RTOL
            return rtol * moment_scale(scales[i], [norm] * n)
        return 0.0
    return tol


def _relative_tol(path, want):
    return WITNESS_RTOL * abs(want) + WITNESS_ATOL


def read_sample_dump(path: Path, packet: TestFunction):
    """Header line, per-sample component ids and phi(packet) of each field."""
    cell = packet.grid.cell
    weights = packet.values.real.ravel()
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    header = lines[:2]
    comps, pairs = [], []
    for meta, row in zip(lines[2::2], lines[3::2]):
        comps.append(meta)
        pairs.append(cell * float(np.dot(np.array(row.split(), dtype=np.float64), weights)))
    return header, comps, pairs


MACHINE_STEM = {"verify": "checks", "moments": "moments", "experiment": "experiment"}


class CliSession:
    name = "cli_session"
    op_unit = "one `python -m schwingerlab.cli` subprocess"

    def __init__(self, bank: dict, seed: int, work: Path):
        self.work = work
        self.grid = grid_of(GRID2)
        self.packet = lattice.gaussian_packet(self.grid, PACKET["center"], PACKET["width"])
        entries = bank["cli_session"]
        order = {name: i for i, name in enumerate(bank["cli_order"])}
        self.cycles = [sorted(c, key=lambda e: order[e["stratum"]])
                       for c in stratified_cycles(np.random.default_rng(seed), entries)]
        # one directory per argument set, as the same file names recur
        self.dirs = {id(e): work / f"{e['stratum']}{i}" for i, e in enumerate(entries)}
        for e in entries:
            d = self.dirs[id(e)]
            d.mkdir(parents=True, exist_ok=True)
            for fname, doc in e["files"].items():
                (d / fname).write_text(json.dumps(doc), encoding="ascii")
        self.digests: dict[int, dict[str, str]] = {}
        self.child_rss_kb = 0
        self.bytes_written = 0
        self.env = dict(os.environ)
        src = str(HERE.parent / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        self.count = 0
        # a traced run replaces the program with launch.py, which writes
        # the spans of each command to one of trace_files
        self.launcher: list[str] | None = None
        self.trace_files: list[Path] = []

    def run(self, item):
        d = self.dirs[id(item)]
        out = d / f"out{self.count}"
        self.count += 1
        env = self.env
        if self.launcher:
            env = dict(env, BENCH_SPAWN_T=repr(time.perf_counter()),
                       BENCH_SPANS=str(out) + ".spans.npz")
            self.trace_files.append(Path(env["BENCH_SPANS"]))
        prog = self.launcher or [sys.executable, "-m", "schwingerlab.cli"]
        argv = prog + [a.replace("{out}", str(out)) for a in item["argv"]]
        with open(d / "stdout.txt", "wb") as so, open(d / "stderr.txt", "wb") as se:
            proc = subprocess.Popen(argv, cwd=d, env=env, stdout=so, stderr=se)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        return proc.returncode, out

    def check(self, item, out) -> list[str]:
        code, out_dir = out
        d = self.dirs[id(item)]
        ref = item["ref"]
        if code != ref["exit_code"]:
            err = (d / "stderr.txt").read_text(errors="replace")[-400:]
            return [f"exit code {code}, expected {ref['exit_code']}: {err}"]
        files = sorted(p for p in out_dir.iterdir() if p.is_file())
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
        self.bytes_written += sum(p.stat().st_size for p in files)
        first = self.digests.setdefault(id(item), digests)
        problems = [] if first == digests else \
            [f"{item['stratum']} rerun outputs are not byte-identical"]
        kind = item["kind"]
        if kind == "sample":
            header, comps, pairs = read_sample_dump(out_dir / "samples.txt", self.packet)
            if header != ref["header"] or comps != ref["components"]:
                problems.append("sample dump header or components differ")
            problems += check_pairs(pairs, ref["pairs"])
        else:
            with open(out_dir / f"{MACHINE_STEM[kind]}.json", encoding="ascii") as fh:
                machine = json.load(fh)
            if kind == "verify":
                tol = _checks_tol(ref["machine"])
            elif kind == "moments":
                tol = _moments_tol(ref["scales"], ref["norm"])
            else:
                tol = _relative_tol
            problems += _compare_numbers(machine, ref["machine"], tol)
        for p in files:
            p.unlink()
        out_dir.rmdir()
        return problems


WORKLOADS = {w.name: w for w in (AxiomSuite, CumulantOrders, McStream, CliSession)}
