"""Command-line entry point.

Commands:
  verify      run the axiom suite on a model file
  moments     moment/cumulant table for a model and test-function recipe
  experiment  run an experiment spec (dispatches on its experiment_id)
  sample      dump Monte Carlo field samples

Exit codes: 0 pass, 1 check failure, 2 input/schema error, 3 numerical
precision failure.  Machine-readable JSON and a human summary are always
written together; --format chooses what is echoed to stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .axioms import SuiteConfig, run_axiom_suite, summary_lines
from .errors import SchemaError, SchwingerLabError
from .experiments import EXPERIMENT_IDS, ExperimentSpec, run_experiment
from .functional import (MAX_MOMENT_ORDER, NUMERIC_MOMENT_CAP,
                         NUMERIC_TOLERANCE_SCHEDULE, MomentTable, load_model,
                         model_to_dict, moment_numeric)
from .lattice import Grid, packet_from_doc
from .montecarlo import sample_stream, write_samples
from .serialize import (canonical_digest, json_number, read_json, require_keys,
                        write_json)

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_SCHEMA = 2
EXIT_PRECISION = 3

DEFAULT_GRID = "2,32,0.25"


def _parse_grid(text: str) -> Grid:
    try:
        d, n, spacing = text.split(",")
        d, n, spacing = int(d), int(n), float(spacing)
    except ValueError:
        raise SchemaError(f"--grid must be 'd,n_per_axis,spacing', got {text!r}") from None
    return Grid(d, n, spacing)


def _load_tolerances(path: str | None) -> dict:
    if path is None:
        return {}
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: tolerance file must be an object")
    for key, value in doc.items():
        json_number(value, f"{path}: {key}")
    return doc


def _emit(out_dir: Path, stem: str, machine: dict, human: list[str],
          fmt: str) -> None:
    # machine and human records are always written side by side; --format
    # only picks what is echoed to stdout
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / f"{stem}.json", machine)
    text = "\n".join(human) + "\n"
    (out_dir / f"{stem}.txt").write_text(text, encoding="ascii")
    if fmt in ("human", "both"):
        sys.stdout.write(text)
    if fmt in ("machine", "both"):
        sys.stdout.write(json.dumps(machine, indent=2) + "\n")


def cmd_verify(args) -> int:
    grid = _parse_grid(args.grid)
    model = load_model(args.model)
    tols = _load_tolerances(args.tolerance_file)
    config = SuiteConfig(grid=grid, seed=args.seed, tolerances=tols)
    result = run_axiom_suite(model, config)
    _emit(Path(args.out), "checks", result.as_dict(), summary_lines(result),
          args.format)
    if result.passed:
        return EXIT_PASS
    first = next(r.check_id for r in result.reports if not r.passed)
    sys.stderr.write(f"check failed: {first}\n")
    return EXIT_CHECK_FAILURE


def _recipe_functions(grid: Grid, doc, n: int):
    require_keys(doc, ["functions"], (), "recipe")
    entries = doc["functions"]
    if not isinstance(entries, list) or not entries:
        raise SchemaError("recipe.functions must be a nonempty list")
    fs = [packet_from_doc(grid, entry, f"recipe.functions[{i}]")
          for i, entry in enumerate(entries)]
    while len(fs) < n:  # a single recipe entry probes equal-argument moments
        fs.append(fs[-1])
    return fs[:n]


def cmd_moments(args) -> int:
    grid = _parse_grid(args.grid)
    model = load_model(args.model)
    if not 1 <= args.order <= MAX_MOMENT_ORDER:
        raise SchemaError(f"--order must be 1..{MAX_MOMENT_ORDER}, got {args.order}")
    schedule = dict(NUMERIC_TOLERANCE_SCHEDULE)
    overrides = _load_tolerances(args.tolerance_file)
    require_keys(overrides, [], [f"numeric_n{n}" for n in schedule],
                 "tolerance overrides")
    for key, val in overrides.items():
        schedule[int(key.removeprefix("numeric_n"))] = float(val)
    recipe = read_json(args.recipe)
    functions = _recipe_functions(grid, recipe, args.order)
    digest = canonical_digest({"model": model_to_dict(model),
                               "grid": grid.as_dict(),
                               "recipe": recipe,
                               "order": args.order})
    rows = []
    precision_ok = True
    table = MomentTable(model, functions)
    for n in range(1, args.order + 1):
        fs = functions[:n]
        analytic = complex(table.moments[(1 << n) - 1])
        connected = complex(table.cumulants[(1 << n) - 1])
        row = {"order": n,
               "moment_analytic": [analytic.real, analytic.imag],
               "connected": [connected.real, connected.imag],
               "method": "analytic"}
        if n <= NUMERIC_MOMENT_CAP:
            numeric = moment_numeric(model, fs)
            delta = abs(numeric.value - analytic)
            scale = max(abs(analytic), 1e-12)
            row.update({
                "moment_numeric": [numeric.value.real, numeric.value.imag],
                "agreement_delta": delta,
                "precision_warning": numeric.precision_warning,
                "method": "both",
            })
            if delta > schedule[n] * scale and numeric.precision_warning:
                precision_ok = False
        rows.append(row)
    human = [f"moments for {args.model} on grid {args.grid}",
             f"config digest: {digest}",
             f"{'n':>2s} {'S_n':>24s} {'S_n connected':>24s} {'method':>8s}"]
    for row in rows:
        re_m, _ = row["moment_analytic"]
        re_c, _ = row["connected"]
        human.append(f"{row['order']:>2d} {re_m:>24.15e} {re_c:>24.15e} "
                     f"{row['method']:>8s}")
    machine = {"config_digest": digest, "model": args.model,
               "grid": grid.as_dict(), "rows": rows}
    _emit(Path(args.out), "moments", machine, human, args.format)
    return EXIT_PASS if precision_ok else EXIT_PRECISION


def _write_refinement_csv(out_dir: Path, report) -> None:
    # convergence/defect curves for external plotting
    vals = report.values
    rows = ["level,two_point,connected_fourth,rotation_defect"]
    defects = [repr(r) for r in vals["rotation_defects"]] or [""] * len(vals["levels"])
    for lvl, s2, s4t, rot in zip(vals["levels"], vals["two_point"],
                                 vals["connected_fourth"], defects):
        rows.append(f"{lvl},{s2!r},{s4t!r},{rot}")
    (out_dir / "curves.csv").write_text("\n".join(rows) + "\n", encoding="ascii")


def cmd_experiment(args) -> int:
    doc = read_json(args.spec)
    overrides = _load_tolerances(args.tolerance_file)
    if overrides and isinstance(doc, dict) and isinstance(doc.get("tolerances", {}), dict):
        doc["tolerances"] = {**doc.get("tolerances", {}), **overrides}
    spec = ExperimentSpec.from_dict(doc)
    report = run_experiment(spec)
    human = [f"experiment {report.experiment_id}: "
             f"{'pass' if report.passed else 'FAIL'}",
             f"spec digest: {report.spec_digest}"]
    for key, val in report.values.items():
        human.append(f"  {key} = {val}")
    for note in report.notes:
        human.append(f"  note: {note}")
    _emit(Path(args.out), "experiment", report.as_dict(), human, args.format)
    if report.experiment_id == "refinement":
        _write_refinement_csv(Path(args.out), report)
    return EXIT_PASS if report.passed else EXIT_CHECK_FAILURE


def cmd_sample(args) -> int:
    grid = _parse_grid(args.grid)
    model = load_model(args.model)
    samples = list(sample_stream(model, grid, args.seed, args.count))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "samples.txt"
    write_samples(path, samples)
    sys.stdout.write(f"wrote {len(samples)} samples to {path}\n")
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schwingerlab",
        description="Mixtures of Gaussian generating functionals on finite "
                    "lattices: axiom checks, moments, experiments, sampling.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {
        "--grid": dict(default=DEFAULT_GRID,
                       help="d,n_per_axis,spacing (default %(default)s)"),
        "--seed": dict(type=int, default=0),
        "--out": dict(default="out", help="output directory"),
        "--format": dict(choices=("human", "machine", "both"), default="human"),
        "--tolerance-file": dict(default=None,
                                 help="JSON object of tolerance overrides (strict keys)"),
    }

    def command(name, summary, positional, func, *names):
        # each command registers only the flags it reads
        p = sub.add_parser(name, help=summary)
        p.add_argument(positional)
        for flag in names:
            p.add_argument(flag, **flags[flag])
        p.set_defaults(func=func)
        return p

    command("verify", "run the axiom suite on a model file", "model", cmd_verify,
            "--grid", "--seed", "--out", "--format", "--tolerance-file")
    p = command("moments", "moment table for a model", "model", cmd_moments,
                "--grid", "--out", "--format", "--tolerance-file")
    p.add_argument("--recipe", required=True,
                   help="JSON recipe of packet test functions")
    p.add_argument("--order", type=int, default=4)
    command("experiment", f"run a spec ({', '.join(EXPERIMENT_IDS)})", "spec",
            cmd_experiment, "--out", "--format", "--tolerance-file")
    p = command("sample", "dump Monte Carlo field samples", "model", cmd_sample,
                "--grid", "--seed", "--out")
    p.add_argument("--count", type=int, default=16)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        sys.stderr.write(f"schema error: {exc}\n")
        return EXIT_SCHEMA
    except FileNotFoundError as exc:
        sys.stderr.write(f"schema error: {exc}\n")
        return EXIT_SCHEMA
    except SchwingerLabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_SCHEMA


if __name__ == "__main__":
    sys.exit(main())
