#!/usr/bin/env python3
"""Build and run one benchmark workload from the root of a checkout.

    python3 perfbench/run.py --workload serve_oltp|refresh_bulk|htap_durable \
        --seed N --seconds S --trace 0|1

Builds the benchmark and the `openivm` CLI with dune (build output goes to
standard error), then replaces itself with the benchmark executable, whose
last line of standard output is the JSON result. See perfbench/NOTES.md.
"""

import os
import shutil
import subprocess
import sys

MAIN = "_build/default/perfbench/main.exe"
CLI = "_build/default/bin/openivm_cli.exe"


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of an OpenIVM checkout "
              "(dune-project and lib/ not found)", file=sys.stderr)
        return 2
    # keep every build artefact, temporary files included, inside the
    # checkout
    tmp = os.path.abspath(os.path.join(".perfbench_tmp", "build"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe",
         "./bin/openivm_cli.exe"],
        env=env, stdout=sys.stderr, stderr=sys.stderr)
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        os.rmdir(".perfbench_tmp")
    except OSError:
        pass
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    os.execv(MAIN, [MAIN, *sys.argv[1:], "--server-exe", CLI])


if __name__ == "__main__":
    sys.exit(main())
