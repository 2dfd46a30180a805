#!/usr/bin/env python3
"""Replay acceptance criterion 1 as classical-mfmc ops.

    python3 bench/calibrate.py

Draws the 50 networks of `test_criterion_1_classical_mfmc_oracle`
(random.Random(20240), |V| 2-8, 1-14 forward edges, capacities 0-10,
marked stalk 141) in the same order, times one classical-mfmc op
(`mfmc_report` + `algebraic_mfmc`) on each, and prints the total and the
resulting ops per second, for comparison with the criterion-1 timing in
ROADMAP.md, and the host's momentary speed as the benchmark's probe time.
"""

import random
import sys
import time

import run
import workloads


def main(argv):
    if not run.prepare(__file__, argv):
        return 2
    lib = run.Lib()
    rng = random.Random(20240)
    busy = 0.0
    for _ in range(50):
        nv = rng.randint(2, 8)
        ne = rng.randint(1, 14)
        spec = workloads.classical_network(rng, nv, ne)
        rng.randint(0, 10)  # criterion 1 also draws a cap for the marked edge
        op = workloads._classical_op(lib, spec)
        t0 = time.perf_counter()
        result = op.call()
        busy += time.perf_counter() - t0
        if not op.check(result).ok:
            print("check failed on %s" % op.label, file=sys.stderr)
            return 1
    print("criterion-1 networks: 50 ops in %.2f s, %.3f ops_per_s"
          % (busy, 50 / busy))
    probes = sorted(run.probe() for _ in range(50))
    print("host probe median %.2f ms (nominal %.2f ms)"
          % (probes[25] * 1e3, run.PROBE_NOMINAL_S * 1e3))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
