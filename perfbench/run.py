#!/usr/bin/env python3
"""Build icdb and the benchmark program from source, then run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. Build output goes to stderr; the last
line of stdout is the benchmark program's JSON result. Exits non-zero, printing no
result, when the checkout does not hold the icdb sources.
"""

import os
import signal
import subprocess
import sys

REQUIRED = ["dune-project", "bin/icdb_cli.ml", "lib/core/server.ml", "perfbench/main.ml"]


def main():
    root = os.getcwd()
    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(root, p))]
    if missing:
        sys.stderr.write("perfbench: not an icdb checkout, missing: %s\n" % ", ".join(missing))
        return 2
    # no shared dune cache: the build writes only under the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/icdb_cli.exe", "./perfbench/main.exe"],
        cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode or 1
    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    icdb = os.path.join(root, "_build", "default", "bin", "icdb_cli.exe")
    bench = subprocess.Popen([exe, "--icdb", icdb, "--root", root] + sys.argv[1:], cwd=root)
    # a terminated run stops the benchmark program, which stops its daemons
    signal.signal(signal.SIGTERM, lambda *_: bench.terminate())
    return bench.wait()


if __name__ == "__main__":
    sys.exit(main())
