#!/usr/bin/env python3
"""sheafflow benchmark: one workload, one seed, one closed-loop caller.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from the src/
directory next to bench/.  The last line of standard output is one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`; the
line before it is a JSON detail record (failure and incompleteness ratios
with their bases, the tail percentile and its sample count, the failures
seen).

--trace 0 measures the end-to-end metrics.  --trace 1 first runs the
same untraced loop, then replays exactly those ops with every layer
traced, and reports the per-layer metrics (see README.md).  The loop
stops at the first block end after S seconds, so --seconds 0 runs
exactly one block.

Times are reported at a nominal host speed: a fixed pure-Python probe is
timed between ops, and each op's latency is scaled by how much slower or
faster than nominal the probe ran around it (see README.md).
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import resource
import statistics
import sys
import time
from fractions import Fraction

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
HASH_SEED = "0"  # set iteration over cell ids orders work in the library
SETUP_REPS = 9
DEFAULT_SEED = 1
OUT_DIR = ".bench_out"
PROBE_NOMINAL_S = 0.0014  # about probe()'s median on the baseline host
PROBE_SPAN = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# -- library loading -----------------------------------------------------------

class Lib:
    """The library surface the workloads use, from one fresh import."""

    def __init__(self):
        import sheafflow
        from sheafflow import cli, cohomology, flowcut, homology
        self.cli = cli
        self.flowcut = flowcut
        self.homology = homology
        self.cohomology = cohomology
        for name in ("Digraph", "BoxSet", "SupportSet", "WeightedNetwork",
                     "CellSheaf", "Hom", "constant_sheaf",
                     "join_semilattice_from_leq", "ParseError",
                     "SaturationBoundExceeded", "SheafflowError"):
            setattr(self, name, getattr(sheafflow, name))


def purge_library():
    for name in [n for n in sys.modules
                 if n == "sheafflow" or n.startswith("sheafflow.")]:
        del sys.modules[name]


class Stream:
    """Ops of one workload and seed, in order, from a fresh import.  The
    first `pregen_blocks` blocks are generated during set-up; later blocks
    are generated between ops, outside every timed interval."""

    def __init__(self, workload, seed):
        purge_library()
        t0 = time.perf_counter()
        self.lib = Lib()
        self._blocks = workload.blocks(self.lib, seed)
        self.ready = [next(self._blocks)
                      for _ in range(workload.pregen_blocks)]
        self.setup_s = time.perf_counter() - t0
        self.late_setup_s = 0.0
        self.ready.reverse()
        self._block = []

    def at_block_end(self):
        return not self._block

    def next(self):
        if not self._block:
            if not self.ready:
                t0 = time.perf_counter()
                self.ready.append(next(self._blocks))
                self.late_setup_s += time.perf_counter() - t0
            self._block = self.ready.pop()
            self._block.reverse()
        return self._block.pop()


# -- host speed ------------------------------------------------------------------

def probe_work():
    """Fixed pure-Python work in the library's style: Fraction arithmetic,
    tuple- and frozenset-keyed dicts, small sets."""
    acc = Fraction(0)
    seen = {}
    for i in range(1, 300):
        acc += Fraction(i % 13, i)
        seen[(i % 17, i % 5)] = acc
        seen.setdefault(frozenset((i % 7, i % 11)), set()).add(i)
    return acc


def probe():
    """Seconds of `probe_work`, the best of two back-to-back runs."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        probe_work()
        best = min(best, time.perf_counter() - t0)
    return best


class HostSpeed:
    """The shared host switches between a fast and a slow state (the
    probe takes about 0.9 or 1.6 ms) several times a second, and the share
    of slow time drifts over minutes; compute-bound Python code slows with
    it.  `tick` times the probe; the loop calls it before every op and
    once after the last.
    `scale` converts a latency to the nominal host speed by the mean of
    the probes within PROBE_SPAN op durations of the op, and at least the
    probes just before and just after it: a short op is scaled by the
    state it ran in, a long one by the average over its own time scale."""

    def __init__(self):
        self.times = []
        self.samples = []

    def tick(self):
        """Probe; returns the index of this probe."""
        self.times.append(time.perf_counter())
        self.samples.append(probe())
        return len(self.samples) - 1

    def now_factor(self):
        return PROBE_NOMINAL_S / self.samples[-1]

    def scale(self, start, seconds, k):
        """`seconds` measured from `start`, right after probe k."""
        span = PROBE_SPAN * seconds
        lo = min(k, bisect.bisect_left(self.times, start - span))
        hi = max(k + 2, bisect.bisect_right(self.times,
                                            start + seconds + span))
        near = self.samples[lo:hi]
        return seconds * PROBE_NOMINAL_S * len(near) / sum(near)


# -- the closed loop -----------------------------------------------------------

class Tally:
    def __init__(self):
        self.latencies = []  # raw seconds
        self.scaled = []  # seconds at the nominal host speed
        self.failed = 0
        self.failed_known = 0
        self.incomplete = 0
        self.exits = {"0": 0, "1": 0, "2": 0, "3": 0, "crash": 0}
        self.failures = []
        self.digests = []
        self.labels = []


def run_loop(stream, seconds, reference, tracer=None, max_ops=None):
    """Run ops one after another, each after the previous one returned,
    until the ops have taken `seconds` at the nominal host speed and the
    current block is complete (or until `max_ops` ops).  Whole blocks keep
    the op mix of a run fixed, and counting nominal rather than wall
    seconds keeps the number of blocks independent of the host's speed.
    Checks and probes run between ops, outside their timing."""
    tally = Tally()
    host = HostSpeed()
    timed = []  # (start, probe index) per op
    busy = 0.0
    while True:
        k = host.tick()
        op = stream.next()
        error = None
        t0 = time.perf_counter()
        try:
            result = tracer.run_op(op.call) if tracer else op.call()
        except Exception as exc:  # a crash is a measured outcome
            error = exc
        dt = time.perf_counter() - t0
        tally.latencies.append(dt)
        timed.append((t0, k))
        busy += dt * host.now_factor()
        judge(op, result if error is None else None, error,
              len(tally.latencies) - 1, reference, tally)
        if max_ops is not None:
            if len(tally.latencies) >= max_ops:
                break
        elif stream.at_block_end() and busy >= seconds:
            break
    host.tick()
    tally.scaled = [host.scale(t0, dt, k)
                    for dt, (t0, k) in zip(tally.latencies, timed)]
    return tally


UNRECORDED = object()


class Reference:
    """Recorded outcome digests: `fixtures` by op label on every seed, and
    `ops` by position for the default seed (empty for other seeds).  An op
    that failed at recording is recorded as None."""

    def __init__(self, fixtures=None, ops=None):
        self.fixtures = fixtures or {}
        self.ops = ops or []

    def expected(self, op, index):
        if op.label in self.fixtures:
            return self.fixtures[op.label]
        return self.ops[index] if index < len(self.ops) else UNRECORDED


def judge(op, result, error, index, reference, tally):
    """Check one op.  A failure is a known baseline defect when the
    reference recorded the op as failed; for an op the reference does not
    cover, when the workload's structural rule says so (`Verdict.known`)."""
    if error is not None:
        ok, known, incomplete = False, False, False
        dig = workloads.digest(["crash", type(error).__name__])
        why = "%s: %s" % (type(error).__name__, error)
        if op.kind.startswith("cli "):
            tally.exits["crash"] += 1
    else:
        v = op.check(result)
        ok, known, incomplete, dig, why = (v.ok, v.known, v.incomplete,
                                           v.digest, v.why)
        if op.kind.startswith("cli "):
            tally.exits[str(result[0])] += 1
    expected = reference.expected(op, index)
    if expected is not UNRECORDED:
        known = not ok and expected is None
        if ok and expected not in (None, dig):
            ok, why = False, "outcome differs from the reference"
    tally.digests.append(dig if ok else None)
    tally.labels.append(op.label)
    tally.incomplete += incomplete
    if not ok:
        tally.failed += 1
        tally.failed_known += known
        if len(tally.failures) < 20 or not known:
            tally.failures.append({"op": index, "label": op.label,
                                   "known": known, "why": why[:200]})


def tail(latencies):
    """Latency at the highest percentile with at least ten samples beyond
    it: the 11th largest sample (the largest when there are fewer than 11).
    Returns (seconds, percentile, samples)."""
    xs = sorted(latencies)
    n = len(xs)
    k = n - 11 if n > 10 else n - 1
    return xs[k], 100.0 * (k + 1) / n, n


# -- the parallel probe ----------------------------------------------------------

def parallel_probe(lib, seed):
    """Median time ratio of cli cutvalue with parallel=1 over parallel=2 on
    multicommodity-gap networks; sides alternate, three rounds."""
    rng = workloads._block_rng(seed, "parallel-probe", 0)
    texts = [workloads.gap_network(rng, nv).text()
             for nv in (10, 11, 12, 12, 13, 13)]
    ratios = []
    for rnd in range(3):
        t = {1: 0.0, 2: 0.0}
        for text in texts:
            for par in ((1, 2) if rnd % 2 == 0 else (2, 1)):
                t0 = time.perf_counter()
                lib.cli.run("cutvalue", text, parallel=par)
                t[par] += time.perf_counter() - t0
        ratios.append(t[1] / t[2])
    return statistics.median(ratios)


# -- main ------------------------------------------------------------------------

def load_reference(seed):
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    ops = data["op_digests"] if seed == data["default_seed"] else {}
    return data["fixtures"], ops


def environment():
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "pythonhashseed": os.environ.get("PYTHONHASHSEED")}


def prepare(script, argv):
    """Re-execute `script` under the fixed hash seed, then put ./src on the
    path.  Returns False when there is no library to benchmark."""
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(script)] + argv, env)
    if not os.path.isdir(os.path.join(SRC, "sheafflow")):
        print("bench: no sheafflow package under %s; run from the "
              "repository root" % SRC, file=sys.stderr)
        return False
    sys.path.insert(0, SRC)
    return True


def main(argv):
    args = parse_args(argv)
    if not prepare(__file__, argv):
        return 2
    workload = workloads.WORKLOADS[args.workload]
    fixtures, ops = load_reference(args.seed)
    reference = Reference(fixtures, ops.get(args.workload))

    setups, raw_setups = [], []
    for _ in range(SETUP_REPS):
        before = probe()
        stream = Stream(workload, args.seed)
        raw_setups.append(stream.setup_s)
        setups.append(stream.setup_s * 2 * PROBE_NOMINAL_S /
                      (before + probe()))
    tally = run_loop(stream, args.seconds, reference)
    attempted = len(tally.latencies)
    busy = sum(tally.scaled)
    tail_s, tail_pct, samples = tail(tally.scaled)
    raw_tail_s = tail(tally.latencies)[0]
    detail = dict(environment(), workload=args.workload, seed=args.seed,
                  trace=args.trace, attempted=attempted,
                  failed=tally.failed, failed_known=tally.failed_known,
                  known_cap=workload.known_cap,
                  failure_ratio=tally.failed / attempted,
                  incomplete=tally.incomplete,
                  incomplete_ratio=tally.incomplete / attempted,
                  tail_percentile=round(tail_pct, 2), tail_samples=samples,
                  op_busy_s=busy, late_setup_s=stream.late_setup_s,
                  setup_samples_s=setups, failures=tally.failures,
                  raw={"ops_per_s": attempted / sum(tally.latencies),
                       "op_p50_ms": statistics.median(tally.latencies) * 1e3,
                       "op_tail_ms": raw_tail_s * 1e3,
                       "setup_s": statistics.median(raw_setups)})

    if args.trace == 0:
        metrics = {
            "ops_per_s": (attempted / busy, "1/s"),
            "op_p50_ms": (statistics.median(tally.scaled) * 1e3, "ms"),
            "op_tail_ms": (tail_s * 1e3, "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        result_tally = tally
    else:
        speedup = parallel_probe(stream.lib, args.seed)
        from tracer import Tracer
        traced_stream = Stream(workload, args.seed)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_loop(traced_stream, 0, reference, tracer,
                              max_ops=attempted)
        finally:
            tracer.uninstall()
        metrics = tracer.metrics(attempted, sum(traced.latencies))
        for code, count in traced.exits.items():
            metrics["cli.exit." + code] = (count, "count")
        metrics.update({
            "cli.cutvalue.parallel2_speedup": (speedup, "ratio"),
            "trace.overhead_ratio": (sum(traced.scaled) / busy, "ratio"),
            "trace.hook_s": (tracer.hook_s, "s"),
            "bench.failure_ratio": (traced.failed / attempted, "ratio"),
            "bench.incomplete_ratio": (traced.incomplete / attempted,
                                       "ratio"),
        })
        detail["trace_spans_dropped"] = tracer.dropped
        write_spans(tracer, args.workload, args.seed)
        result_tally = traced

    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": all(t.failed == t.failed_known and
                       t.failed_known <= workload.known_cap * attempted
                       for t in (tally, result_tally)),
        "attempted": attempted,
        "failed": result_tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(metrics.items())},
    }))
    return 0


def write_spans(tracer, workload, seed):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "spans-%s-%d.jsonl" % (workload, seed))
    with open(path, "w", encoding="utf-8") as fh:
        for sid, parent, name, start, end in tracer.spans:
            fh.write('{"id":%d,"parent":%s,"name":"%s","start":%.9f,'
                     '"end":%.9f}\n' % (sid, "null" if parent is None
                                        else parent, name, start, end))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
