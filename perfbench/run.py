#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload recommend|paql|churn|serve \
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout.  It builds the benchmark and
the `recommend` executable with dune (the first run in a checkout pays the
whole build), then runs the benchmark, which prints its result as the last
line of standard output.  Build output goes to standard error.
"""
import os
import subprocess
import sys

SOURCES = ["dune-project", "lib", "bin/dune", "perfbench/dune"]
BENCH = "_build/default/perfbench/bench.exe"
RECOMMEND = "_build/default/bin/recommend.exe"


def pin_to_one_cpu():
    """Run the benchmark, and the serve daemon it starts, on one CPU.

    Every untraced workload is one caller with one runnable domain at a
    time.  On a small virtual machine whose CPUs are intermittently taken
    by the host, handing a request between threads on two CPUs stalls
    whenever either CPU is taken; on one CPU only that CPU's stalls count.
    The build above still uses every CPU, and so does the traced run of an
    in-process workload, which keeps the search pool's default of one
    domain per core.  The serve daemon caps its own pool at one domain, so
    its traced run stays on one CPU like its untraced runs.
    """
    try:
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[-1]})
    except (AttributeError, OSError):
        pass


def option(args, name):
    """The value of --name in the arguments, or None."""
    for i, a in enumerate(args):
        if a == name and i + 1 < len(args):
            return args[i + 1]
        if a.startswith(name + "="):
            return a.split("=", 1)[1]
    return None


def main():
    missing = [p for p in SOURCES if not os.path.exists(p)]
    if missing:
        print("perfbench: not a source checkout (missing %s)" % ", ".join(missing),
              file=sys.stderr)
        return 2
    # The shared dune cache lives outside the checkout; keep every build
    # artifact inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe", "./bin/recommend.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    sys.stdout.flush()
    args = sys.argv[1:]
    if option(args, "--trace") in (None, "0") or option(args, "--workload") == "serve":
        pin_to_one_cpu()
    run = subprocess.run(
        [BENCH] + sys.argv[1:] + ["--recommend", RECOMMEND, "--out", "perfbench/_out"])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
