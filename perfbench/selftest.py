#!/usr/bin/env python3
"""Self-tests of the benchmark's correctness checks.

    python3 selftest.py            (from this directory, or any other)

Builds the benchmark like run.py does, then runs perfbench_selftest: each
check must accept a real output of the program and reject a deliberately
corrupted copy (a wrong owner, a step that is not an edge, broken sweep
conservation, a truncated .otrace, a trace edge not in the topology, ...).
Exits non-zero when a case fails.
"""

import os
import subprocess
import sys

import run


def main():
    build_dir = os.path.join(run.build_root(), "perfbench")
    try:
        run.build(build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print(f"selftest: build failed: {e}", file=sys.stderr)
        return 1
    scratch = os.path.join(run.build_root(), "perfbench-out")
    os.makedirs(scratch, exist_ok=True)
    return subprocess.run(
        [os.path.join(build_dir, "perfbench_selftest"), scratch]).returncode


if __name__ == "__main__":
    sys.exit(main())
