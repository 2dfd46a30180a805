#!/usr/bin/env python3
"""Record bench/reference.json from the current library.

    python3 bench/record_reference.py

Records the outcome digest of every fixture-file CLI op and of the first
ops of every workload under the default seed (null for an op that
failed).  Run it only on a commit
whose outputs are known good; the benchmark then counts any differing
outcome as a failed op.
"""

import json
import os
import sys

import run
import workloads


def main(argv):
    if not run.prepare(__file__, argv):
        return 2
    out = {"default_seed": run.DEFAULT_SEED, "fixtures": {},
           "op_digests": {}}
    for name, w in sorted(workloads.WORKLOADS.items()):
        stream = run.Stream(w, run.DEFAULT_SEED)
        count = sum(len(b) for b in stream.ready)
        tally = run.run_loop(stream, 0, run.Reference(), max_ops=count)
        out["op_digests"][name] = tally.digests
        if name == "sheaf-cli":
            fixture_labels = {"%s %s" % (c, f)
                              for f, _ in workloads.fixture_texts()
                              for c in workloads.CLI_COMMANDS}
            for label, dig in zip(tally.labels, tally.digests):
                if label in fixture_labels:
                    out["fixtures"][label] = dig
        print("%s: %d ops, %d failed (%d known)" % (
            name, count, tally.failed, tally.failed_known), file=sys.stderr)
    path = os.path.join(run.HERE, "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
