"""Run the package CLI with the benchmark's span wrappers installed.

    BENCH_SPAWN_T=<perf_counter at spawn> BENCH_SPANS=<out.npz> \\
        python3 perfbench/launch.py <schwingerlab arguments>

Used by the traced cli_session run.  Besides the wrapped calls it records
the interpreter start (spawn to first line here), the package import and
the wrapper installation as spans, and writes every span to BENCH_SPANS
when the command returns.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

from source import prepare  # noqa: E402

prepare()


def main() -> int:
    t_import = time.perf_counter()
    from tracing import Tracer
    import schwingerlab.cli
    t_ready = time.perf_counter()
    tracer = Tracer()
    tracer.span("cli.interpreter", float(os.environ["BENCH_SPAWN_T"]), T0)
    tracer.span("cli.import", t_import, t_ready)
    t_install = time.perf_counter()
    tracer.install()
    tracer.span("trace.install", t_install, time.perf_counter())
    try:
        return schwingerlab.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        tracer.dump(os.environ["BENCH_SPANS"])


if __name__ == "__main__":
    sys.exit(main())
