"""Record the reference bank: fixed workload inputs and the program's outputs.

    python3 perfbench/record.py

rewrites `perfbench/reference.json`.  Run it only at a commit whose outputs
are trusted; every benchmark run afterwards checks its operations against
these values.  Inputs are drawn from fixed seeds, so a rerun at the same
commit reproduces the file.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

from source import prepare

prepare()

import numpy as np  # noqa: E402

import workloads as W  # noqa: E402
from schwingerlab.axioms import SuiteConfig, run_axiom_suite  # noqa: E402
from schwingerlab.experiments import two_mass_mixture  # noqa: E402
from schwingerlab.fixtures import random_model_tree, rng_from_seed  # noqa: E402
from schwingerlab.functional import (cumulant_scale, gaussianize,  # noqa: E402
                                     model_from_dict, model_to_dict,
                                     moment_analytic)
from schwingerlab.lattice import gaussian_packet  # noqa: E402
from schwingerlab.montecarlo import estimate_fourth_cumulant, pair_values  # noqa: E402
from schwingerlab.propagator import free_two_point  # noqa: E402

TREE_SEED = 424242
# The model pool: the first POOL_SIZE draws of random_model_tree(max_depth=3)
# at TREE_SEED, in their natural proportions.  Sorted by (leaves, atoms),
# which orders a tree's axiom-suite and moment-table cost, the pool splits
# into POOL_SIZE / BLOCK quantile blocks of BLOCK neighbours; a cycle takes
# one tree of every block, a proportional stratified sample of the pool.
POOL_SIZE = 48
BLOCK = 4
MC_STREAMS = 8
MC_TREE_BLOCKS = 4
CLI_VARIANTS = 4
CLI_ORDER = ["verify", "moments", "two_mass", "iteration", "refinement", "sample"]


def shape(model) -> tuple[int, int]:
    leaves = list(model.leaves())
    return len(leaves), sum(len(leaf.rho.atoms) for _, leaf in leaves)


def draw_pool(rng) -> list:
    """The pool in (leaves, atoms, draw) order."""
    pool = [random_model_tree(rng, max_depth=3) for _ in range(POOL_SIZE)]
    return [pool[i] for i in sorted(range(POOL_SIZE), key=lambda i: (*shape(pool[i]), i))]


def block_name(i: int, blocks: int) -> str:
    return f"Q{i * blocks // POOL_SIZE + 1:02d}"


def pool_summary(pool) -> dict:
    """Shares of the pool by leaf count and atom count."""
    shares = {}
    for axis, key in enumerate(("leaves", "atoms")):
        counts = Counter(shape(m)[axis] for m in pool)
        shares[key] = {str(k): round(counts[k] / len(pool), 4) for k in sorted(counts)}
    return {"size": len(pool), "seed": TREE_SEED, "shares": shares}


def norms(model, fs) -> list[float]:
    """sqrt(S_2(f, f)) of each function, the floor of the moment tolerances."""
    return [math.sqrt(abs(moment_analytic(model, [f, f]))) for f in fs]


def random_function_spec(rng: np.random.Generator, grid_doc: dict) -> list[dict]:
    """One or two modulated packets, the recipe of fixtures.random_real_function."""
    n, a = grid_doc["n_per_axis"], grid_doc["spacing"]
    L, d = n * a, grid_doc["d"]

    def packet(coeff):
        return {"center": [float(c) for c in rng.uniform(0.0, L, size=d)],
                "width": float(rng.uniform(2.0 * a, L / 8.0)),
                "momentum": [float(2.0 * np.pi / L * m) for m in rng.integers(-2, 3, size=d)],
                "coeff": coeff}
    spec = [packet(1.0)]
    if rng.random() < 0.5:
        spec.append(packet(float(rng.uniform(-1.0, 1.0))))
    return spec


def record_axiom_suite(pool) -> list[dict]:
    out = []
    for i, m in enumerate(pool):
        seed = 1000 + i
        ref = {W.grid_key(g): W.suite_summary(run_axiom_suite(
            m, SuiteConfig(W.grid_of(g), seed=seed))) for g in (W.GRID2, W.GRID3)}
        out.append({"stratum": block_name(i, POOL_SIZE // BLOCK), "shape": shape(m),
                    "model": model_to_dict(m), "suite_seed": seed, "ref": ref})
    return out


def record_cumulant_orders(pool) -> list[dict]:
    out = []
    frng = np.random.default_rng(TREE_SEED)
    grid = W.grid_of(W.GRID2)
    for i, m in enumerate(pool):
        for equal in (True, False):
            specs = [random_function_spec(frng, W.GRID2)
                     for _ in range(1 if equal else W.MOMENT_ORDER)]
            specs = specs * W.MOMENT_ORDER if equal else specs
            fs = [W.build_function(grid, sp) for sp in specs]
            ref = W.moment_table(m, fs, grid)
            ref["norms"] = norms(m, fs)
            out.append({"stratum": f"{block_name(i, POOL_SIZE // BLOCK)}-"
                                   f"{'equal' if equal else 'distinct'}",
                        "equal": equal, "shape": shape(m), "model": model_to_dict(m),
                        "functions": specs, "ref": ref})
    return out


def atoms_per_sample(model) -> float:
    """Mean atom count of the leaf a sample draws."""
    return sum(w * len(leaf.rho.atoms) for w, leaf in model.leaves())


def record_mc_stream(pool) -> dict:
    grid = W.grid_of(W.GRID2)
    packet = gaussian_packet(grid, W.PACKET["center"], W.PACKET["width"])
    mixture = two_mass_mixture(1.0, 4.0)
    flat = gaussianize(mixture)
    # the pool's depth-3 trees, in quantile blocks of sampling cost
    trees = sorted((m for m in pool if m.depth() == 3), key=atoms_per_sample)
    tree_blocks = np.array_split(np.arange(len(trees)), MC_TREE_BLOCKS)
    srng = np.random.default_rng(TREE_SEED + 1)
    streams = []
    for kind, models, strata in (
            ("mixture", [mixture] * MC_STREAMS, np.arange(MC_STREAMS) // 2),
            ("gaussianized", [flat] * MC_STREAMS, np.arange(MC_STREAMS) // 2),
            ("tree", trees, np.concatenate([[b] * len(ix) for b, ix in enumerate(tree_blocks)]))):
        for m, block in zip(models, strata):
            seed = int(srng.integers(1, 2**62))
            xs = pair_values(m, grid, packet, seed, W.MC_BATCH)
            streams.append({"stratum": f"{kind}-{block + 1}", "kind": kind,
                            "shape": shape(m), "model": model_to_dict(m),
                            "stream_seed": seed,
                            "ref": {"pairs": [float(x) for x in xs],
                                    "kappa4": list(estimate_fourth_cumulant(xs))}})
    d_s2 = (free_two_point(packet, packet, 1.0) - free_two_point(packet, packet, 4.0)).real
    return {"mixture_closed_form_kappa4": 3.0 * 0.5 * 0.5 * d_s2 ** 2,
            "streams": streams}


def cli_variants(pool) -> list[dict]:
    """CLI_VARIANTS argument sets; variant k uses the middle tree of the
    k-th of CLI_VARIANTS quantile blocks of the pool."""
    grid_arg = W.grid_key(W.GRID2)
    vrng = np.random.default_rng(TREE_SEED + 2)
    out = []
    for i in range(CLI_VARIANTS):
        tree = pool[(2 * i + 1) * POOL_SIZE // (2 * CLI_VARIANTS)]
        model = {"format": "schwinger-model", "version": 1,
                 "model": model_to_dict(tree)}
        common = ["--out", "{out}", "--seed", str(int(vrng.integers(0, 10**6)))]
        out.append({"stratum": "verify", "kind": "verify",
                    "files": {"model.json": model},
                    "argv": ["verify", "model.json", "--grid", grid_arg] + common})
        p = random_function_spec(vrng, W.GRID2)[0]
        recipe = {"functions": [{"center": p["center"], "width": p["width"],
                                 "momentum": p["momentum"]}]}
        out.append({"stratum": "moments", "kind": "moments",
                    "files": {"model.json": model, "recipe.json": recipe},
                    "argv": ["moments", "model.json", "--recipe", "recipe.json",
                             "--order", "6", "--grid", grid_arg, "--out", "{out}"]})
        m1, m2 = float(vrng.uniform(0.5, 2.0)), float(vrng.uniform(3.0, 6.0))
        spec = {"experiment_id": "two_mass_fourth_cumulant", "grid": W.GRID2,
                "params": {"masses_sq": [m1, m2], "packet": W.PACKET, "mc_samples": 500},
                "seed": int(vrng.integers(0, 10**6))}
        out.append({"stratum": "two_mass", "kind": "experiment",
                    "files": {"spec.json": spec},
                    "argv": ["experiment", "spec.json", "--out", "{out}"]})
        masses = sorted(float(x) for x in vrng.uniform(1.0, 9.0, size=4))
        spec = {"experiment_id": "iteration", "grid": W.GRID2,
                "params": {"families": [[[masses[0], 0.5], [masses[2], 0.5]],
                                        [[masses[1], 0.5], [masses[3], 0.5]]],
                           "lambda_weights": [0.5, 0.5], "packet": W.PACKET}}
        out.append({"stratum": "iteration", "kind": "experiment",
                    "files": {"spec.json": spec},
                    "argv": ["experiment", "spec.json", "--out", "{out}"]})
        spec = {"experiment_id": "refinement", "grid": W.GRID2,
                "params": {"d": 2, "extent": 16.0, "levels": [16, 32, 64],
                           "masses_sq": [masses[0], masses[3]],
                           "packet": {"center": [8.0, 8.0], "width": 2.0,
                                      "momentum": [np.pi / 4, np.pi / 8]}}}
        out.append({"stratum": "refinement", "kind": "experiment",
                    "files": {"spec.json": spec},
                    "argv": ["experiment", "spec.json", "--out", "{out}"]})
        out.append({"stratum": "sample", "kind": "sample",
                    "files": {"model.json": model},
                    "argv": ["sample", "model.json", "--count", "64",
                             "--grid", grid_arg] + common})
    return out


def record_cli_session(pool) -> list[dict]:
    variants = cli_variants(pool)
    work = Path(tempfile.mkdtemp(prefix="bench-record-", dir=W.HERE))
    try:
        session = W.CliSession({"cli_session": variants, "cli_order": CLI_ORDER}, 0, work)
        grid = W.grid_of(W.GRID2)
        for v in variants:
            code, out_dir = session.run(v)
            ref = {"exit_code": code}
            if v["kind"] == "sample":
                header, comps, pairs = W.read_sample_dump(out_dir / "samples.txt",
                                                          session.packet)
                ref.update(header=header, components=comps, pairs=pairs)
            else:
                stem = W.MACHINE_STEM[v["kind"]]
                ref["machine"] = json.loads((out_dir / f"{stem}.json").read_text())
            if v["kind"] == "moments":
                model = model_from_dict(v["files"]["model.json"]["model"])
                p = v["files"]["recipe.json"]["functions"][0]
                f = gaussian_packet(grid, p["center"], p["width"], p["momentum"])
                ref["scales"] = [cumulant_scale(model, [f] * n) for n in range(1, 7)]
                ref["norm"] = norms(model, [f])[0]
            v["ref"] = ref
            print(f"  cli {v['stratum']}: exit {code}", file=sys.stderr)
    finally:
        shutil.rmtree(work)
    return variants


def main() -> int:
    pool = draw_pool(rng_from_seed(TREE_SEED))
    bank = {"format": "perfbench-reference", "version": 2, "pool": pool_summary(pool)}
    bank["axiom_suite"] = record_axiom_suite(pool)
    bank["cumulant_orders"] = record_cumulant_orders(pool)
    bank["mc_stream"] = record_mc_stream(pool)
    bank["cli_order"] = CLI_ORDER
    bank["cli_session"] = record_cli_session(pool)
    rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=W.HERE,
                         capture_output=True, text=True).stdout.strip()
    bank["recorded_at"] = rev or "unknown"
    with open(W.REFERENCE, "w", encoding="ascii") as fh:
        json.dump(bank, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
