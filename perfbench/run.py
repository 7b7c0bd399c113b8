"""schwingerlab benchmark: four seeded workloads, end to end and per layer.

    python3 perfbench/run.py --workload axiom_suite --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py and BENCHMARK.json): axiom_suite,
cumulant_orders, mc_stream, cli_session.  Each is a closed loop with one
client: the next op starts when the previous one has returned and been
checked against the reference bank.  Ops run in whole cycles, each a
stratified sample of the inputs (workloads.py), until --seconds have
passed (at least MIN_CYCLES cycles).

Machine speed.  The machine may share its cores with other tenants, and
its speed then changes by a third or more over seconds to minutes.  Every
measured time (op, set-up probe, start-up probe) is bracketed by a fixed
calibration kernel (numpy FFTs and a Python loop, no program code) and
reported scaled to a machine on which that kernel takes
REFERENCE_KERNEL_S: t * REFERENCE_KERNEL_S / k, with k the mean of the
kernel times just before and just after (`Calibration`).  A change to the
program moves the scaled times as it moves the raw ones; a slowdown of
the whole machine moves both t and k.  The raw times are printed and kept
in the run record.

--trace 0 reports the end-to-end metrics, measured without tracing, all
times scaled as above:
  setup_s      median over SETUP_PROBES fresh processes, spread over the
               run, of the time from spawn to ready: interpreter start,
               import, building the run's inputs from the bank and the
               lattice_symbol warm-up (no op runs)
  ops_per_s    ops completed per second of op time, median over cycles
  op_p50_s     median op time
  op_tail_s    op time at the highest integer percentile with >= 10 ops
               beyond it (the percentile and op count are printed)
  peak_rss_mb  peak resident memory of this process; for cli_session the
               largest over the CLI child processes

--trace 1 runs half of --seconds untraced and half with span wrappers
installed (tracing.py) and reports the per-layer metrics: counts and raw
self times per op, stage times per call, plus trace.overhead_frac (traced
minus untraced op_p50_s, over untraced) and trace.unattributed_frac (op
time outside every program span).  Spans are written to
perfbench/out/spans-<workload>-<seed>.npz, the run record to
perfbench/out/run-<workload>-<seed>-trace<t>.json.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  `--workload all` runs each workload in its own fresh process
and prints the metrics of all four.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from source import ROOT, THREAD_VARS, prepare

prepare()

import numpy as np  # noqa: E402

import workloads as W  # noqa: E402
from tracing import OP_SPAN, Tracer, per_layer  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_PROBES = 5
MIN_CYCLES = 2
STARTUP_PROBES = 5
REFERENCE_KERNEL_S = 1e-3
_FFTN = np.fft.fftn      # captured before tracing can wrap numpy.fft


class Calibration:
    """Machine speed from a fixed kernel timed around every measurement."""

    def __init__(self):
        self._data = np.random.default_rng(0).random((32, 32))
        self.kernels: list[float] = []
        for _ in range(20):
            self.kernel()

    def kernel(self) -> float:
        t0 = time.perf_counter()
        for _ in range(20):
            _FFTN(self._data)
        acc = 0
        for i in range(15000):
            acc += i
        dt = time.perf_counter() - t0
        self.kernels.append(dt)
        return dt

    def timed(self, fn):
        """(result, raw seconds, scaled seconds) of fn()."""
        before = self.kernel()
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        after = self.kernel()
        return result, dt, dt * REFERENCE_KERNEL_S / (0.5 * (before + after))


def make_workload(name: str, seed: int):
    bank = W.load_bank()
    if name == "cli_session":
        work = OUT / f"{name}-{os.getpid()}"
        return W.CliSession(bank, seed, work)
    return W.WORKLOADS[name](bank, seed)


def run_op(workload, item, op: int, cal: Calibration, tracer=None):
    """Run and check one op; returns (raw s, scaled s, problems)."""
    def run():
        if tracer:
            tracer.begin_op(op)
        try:
            return workload.run(item), None
        except Exception as exc:  # an op that raises counts as failed
            return None, f"{type(exc).__name__}: {exc}"
        finally:
            if tracer:
                tracer.end_op()
    (out, error), raw, scaled = cal.timed(run)
    if tracer and getattr(workload, "launcher", None):
        spans = workload.trace_files.pop()
        if spans.is_file():
            last = tracer.absorb(spans, tracer.op_index, op)
            spans.unlink()
            # from the command's return to the exit seen here: span file
            # write and interpreter shutdown
            tracer.spans.append([tracer.name_id("cli.exit"), last,
                                 tracer.spans[tracer.op_index][2], tracer.op_index, op])
        else:
            error = error or f"launcher wrote no spans file {spans.name}"
    if error:
        return raw, scaled, [error]
    try:
        return raw, scaled, workload.check(item, out)
    except Exception as exc:  # a malformed output counts as failed
        return raw, scaled, [f"check raised {type(exc).__name__}: {exc}"]


class Tally:
    def __init__(self):
        self.raw: list[float] = []
        self.times: list[float] = []     # scaled
        self.kinds: list[str] = []
        self.cycle_rates: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, raw: float, scaled: float, kind: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems[:3]
            return False
        self.raw.append(raw)
        self.times.append(scaled)
        self.kinds.append(kind)
        return True

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems


def loop(workload, seconds: float, min_cycles: int, tally: Tally, cal: Calibration,
         tracer=None, between=None) -> None:
    """Whole cycles until `seconds` have passed; `between(elapsed)` runs
    after each cycle, outside the timed ops."""
    start = time.perf_counter()
    cycles = 0
    while cycles < min_cycles or time.perf_counter() - start < seconds:
        done, busy = 0, 0.0
        for item in workload.cycles[cycles % len(workload.cycles)]:
            raw, scaled, problems = run_op(workload, item, tally.attempted, cal, tracer)
            if tally.add(raw, scaled, W.stratum_of(item), problems):
                done, busy = done + 1, busy + scaled
        if done:
            tally.cycle_rates.append(done / busy)
        cycles += 1
        if between:
            between(time.perf_counter() - start)


def tail(times: list[float]) -> tuple[float, int]:
    """Highest integer percentile with >= 10 samples beyond it (nearest rank)."""
    s = sorted(times)
    n = len(s)
    pct = max(50, min(99, int(100 * (1 - 10 / n)))) if n else 50
    rank = max(1, -(-pct * n // 100))
    return s[rank - 1], pct


class SetupProbes:
    """Times fresh processes from spawn to ready (set-up only), spread over
    the run between cycles."""

    def __init__(self, args, cal: Calibration):
        self.args = args
        self.cal = cal
        self.raw: list[float] = []
        self.times: list[float] = []

    def _spawn(self) -> float:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__)), "--workload", self.args.workload,
             "--seed", str(self.args.seed), "--setup-probe"],
            stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
        proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
        return t1 - t0

    def probe(self) -> None:
        before = self.cal.kernel()
        dt = self._spawn()
        after = self.cal.kernel()
        self.raw.append(dt)
        self.times.append(dt * REFERENCE_KERNEL_S / (0.5 * (before + after)))

    def between(self, elapsed: float) -> None:
        if len(self.times) < SETUP_PROBES and \
                elapsed >= len(self.times) * self.args.seconds / SETUP_PROBES:
            self.probe()

    def finish(self) -> list[float]:
        while len(self.times) < SETUP_PROBES:
            self.probe()
        return self.times


def startup_probes(cal: Calibration) -> dict[str, float]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def median_of(argv):
        return statistics.median(
            cal.timed(lambda: subprocess.run(argv, check=True, env=env,
                                             stdout=subprocess.DEVNULL))[2]
            for _ in range(STARTUP_PROBES))
    interp = median_of([sys.executable, "-c", "pass"])
    imp = median_of([sys.executable, "-c", "import schwingerlab"])
    return {"cli.interpreter_s": interp, "cli.import_s": imp - interp}


def run_record(args) -> dict:
    def git(*cmd):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            p = subprocess.run(["git", *cmd], cwd=ROOT, env=env,
                               capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return p.stdout.strip() if p.returncode == 0 else None
    rev = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if rev else None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "git_revision": rev or "unknown (not a git checkout)",
            "git_dirty": (bool(status) if status is not None else None),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "nproc": os.cpu_count(),
            "cpus_pinned": sorted(os.sched_getaffinity(0)),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def units(kind: str) -> dict[str, str]:
    """Metric names and units of one kind, as BENCHMARK.json declares them."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {e["name"]: e["unit"] for e in doc[kind]}


def end_to_end(args, workload, tally: Tally, cal: Calibration, probes: SetupProbes):
    setup = probes.finish()
    tail_s, pct = tail(tally.times)
    if isinstance(workload, W.CliSession):
        rss_kb = workload.child_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {"setup_s": statistics.median(setup),
              "ops_per_s": statistics.median(tally.cycle_rates),
              "op_p50_s": statistics.median(tally.times), "op_tail_s": tail_s,
              "peak_rss_mb": rss_kb / 1024.0}
    raw = {"setup_s": statistics.median(probes.raw),
           "ops_per_s": len(tally.raw) / sum(tally.raw),
           "op_p50_s": statistics.median(tally.raw), "op_tail_s": tail(tally.raw)[0]}
    kernel = statistics.median(cal.kernels)
    print(f"# {args.workload}: op = {workload.op_unit}; closed loop, one client")
    print(f"# ops timed {len(tally.times)}, attempted {tally.attempted}, failed "
          f"{tally.failed} (failed_frac {tally.failed / tally.attempted:.4f})")
    print(f"# op_tail_s is p{pct} over {len(tally.times)} ops")
    print(f"# calibration kernel median {kernel * 1e3:.3f} ms; raw (unscaled): "
          + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    return ({k: metric(values[k], unit) for k, unit in units("end_to_end").items()},
            {"tail_percentile": pct, "ops_timed": len(tally.times), "raw": raw,
             "kernel_median_s": kernel, "setup_probes_s": setup})


def traced(args, workload, tally: Tally, cal: Calibration):
    half = args.seconds / 2.0
    plain = Tally()
    loop(workload, half, 1, plain, cal)
    tracer = Tracer()
    if isinstance(workload, W.CliSession):
        workload.launcher = [sys.executable, str(HERE / "launch.py")]
    else:
        tracer.install()
    try:
        loop(workload, half, 1, tally, cal, tracer)
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"spans-{args.workload}-{args.seed}.npz")
    m, layers = per_layer(tracer)
    tally.merge(plain)
    ops = sum(1 for s in tracer.spans if s[0] == tracer.name_id(OP_SPAN))
    op_total = sum(layers.values())
    p50_plain = statistics.median(plain.times)
    p50_traced = statistics.median(tally.times)
    m["trace.overhead_frac"] = (p50_traced - p50_plain) / p50_plain
    m["trace.unattributed_frac"] = layers.get("unattributed", 0.0) / op_total
    is_cli = isinstance(workload, W.CliSession)
    m["cli.bytes_written"] = workload.bytes_written / tally.attempted if is_cli else 0.0
    m.update(startup_probes(cal) if is_cli else
             {"cli.interpreter_s": 0.0, "cli.import_s": 0.0})
    for cmd, strata in (("verify", ("verify",)), ("moments", ("moments",)),
                        ("experiment", ("two_mass", "iteration", "refinement")),
                        ("sample", ("sample",))):
        ts = [t for t, k in zip(plain.times, plain.kinds) if k in strata]
        m[f"cli.{cmd}_s"] = statistics.median(ts) if ts else 0.0
    print(f"# {args.workload}: traced {ops} ops, untraced {len(plain.times)}; "
          f"op_p50 (scaled) untraced {p50_plain:.6f} s, traced {p50_traced:.6f} s")
    print("# raw self time per traced op by layer (s):")
    for layer, s in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"#   {layer:20s} {s / ops:.6f}  ({100 * s / op_total:.1f}%)")
    print(f"#   {'sum = traced op time':20s} {op_total / ops:.6f}")
    return {k: metric(m[k], unit) for k, unit in units("per_layer").items()}, {"layers": layers}


def run_all(args) -> int:
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in W.WORKLOADS:
        argv = [sys.executable, str(Path(__file__)), "--workload", name, "--seed",
                str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        doc = json.loads(lines[-1])
        result["correct"] &= doc["correct"]
        result["attempted"] += doc["attempted"]
        result["failed"] += doc["failed"]
        for key, val in doc["metrics"].items():
            result["metrics"][f"{name}.{key}"] = val
            print(f"{name:16s} {key:36s} {val['value']:>14.6g} {val['unit']}")
    print(json.dumps(result))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(W.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)

    # One CPU for this process and its children, so that the calibration
    # kernel times the core the ops run on.
    cpus_usable = len(os.sched_getaffinity(0))
    if not args.setup_probe:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = make_workload(args.workload, args.seed)
    tally = Tally()
    try:
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        cal = Calibration()
        _, _, problems = run_op(workload, workload.cycles[0][0], -1, cal)  # warm-up, untimed
        tally.attempted += 1
        tally.failed += bool(problems)
        tally.problems += problems
        if args.trace:
            metrics, extra = traced(args, workload, tally, cal)
        else:
            probes = SetupProbes(args, cal)
            loop(workload, args.seconds, MIN_CYCLES, tally, cal, between=probes.between)
            metrics, extra = end_to_end(args, workload, tally, cal, probes)
        run_problems = workload.run_checks() if hasattr(workload, "run_checks") else []
    finally:
        if isinstance(workload, W.CliSession):
            shutil.rmtree(workload.work, ignore_errors=True)
    for p in tally.problems[:10] + run_problems:
        print(f"# FAILED: {p}")
    result = {"correct": tally.failed == 0 and not run_problems,
              "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    record = run_record(args)
    record.update(cpus_usable=cpus_usable, result=result,
                  problems=tally.problems + run_problems,
                  reference_kernel_s=REFERENCE_KERNEL_S,
                  equal_argument_share=getattr(workload, "equal_share", None), **extra)
    OUT.mkdir(exist_ok=True)
    (OUT / f"run-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="ascii")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
