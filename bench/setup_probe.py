"""Time the benchmark's set-up in a fresh interpreter.

    python3 bench/setup_probe.py WORKLOAD_JSON SEED N_OPS SPAWN_TIME

Prints the seconds from SPAWN_TIME (the parent's ``time.time()`` just
before it started this process) to the moment the workload's inputs are
ready for the first timed call: interpreter start, imports of numpy, scipy
and lqmatern, input generation and the distance caches.
"""

import json
import sys
import time


def main():
    spec, seed, n_ops, t_spawn = json.loads(sys.argv[1]), int(sys.argv[2]), \
        int(sys.argv[3]), float(sys.argv[4])
    import run  # pins BLAS threads, then imports numpy, scipy and lqmatern

    run.prepare(run.Workload(**dict(spec, qs=tuple(spec["qs"]))), seed, n_ops)
    print(repr(time.time() - t_spawn))


if __name__ == "__main__":
    main()
