"""Set up one workload's inputs in a fresh interpreter and print, as
``time.monotonic()``, the moment the first request is ready.

    python3 bench/prepare.py WORKLOAD SEED WORKDIR

run.py spawns this several times to time set-up from process start; the
reading is comparable across processes because the monotonic clock is
system-wide.
"""

import sys
import time

import run


def main(argv):
    problem = run.bootstrap()
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    import workloads

    workload, seed, workdir = argv
    workloads.prepare(workload, int(seed), workdir)
    print(time.monotonic())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
