"""Record the golden stdout digests that `run.py` compares operations against.

    python3 perfbench/record_goldens.py

Runs every operation of the `verify` and `chart` workloads and of the `cli`
mix for seeds 0 .. GOLDEN_SEEDS - 1, and writes the exit code and the
SHA-256 of the normalised stdout of each distinct command line to
``goldens.json``. An operation that fails the checks made without goldens
is not recorded and makes the script exit 1; a known defect is never
recorded, so that its fix is accepted. Re-record only when a change of
output is intended.
"""

from __future__ import annotations

import json
import sys
import time

import run
import workloads

# the cli seeds whose outputs have goldens; other seeds are judged by their
# checks alone
GOLDEN_SEEDS = 20


def main():
    env = run.child_env()
    passes = [workloads.workload_ops("verify", 0), workloads.workload_ops("chart", 0)]
    passes += [workloads.cli_ops(seed) for seed in range(GOLDEN_SEEDS)]
    goldens, bad = {}, []
    for ops in passes:
        payloads = []
        for op in ops:
            rc, out, err, _, _, _ = run.run_process(
                [sys.executable, "-c", run.LAUNCH, *op.argv], env,
                time.perf_counter() + 600)
            verdict, reason = workloads.judge(op, rc, out, err, {}, payloads)
            payloads.append(workloads.parse_json_output(out)[0] if "--json" in op.argv else None)
            if verdict == "failed":
                bad.append((op.key, reason))
            elif verdict == "ok" and not op.known_defect:
                goldens[op.key] = {"rc": rc, "sha256": workloads.digest(out)}
    workloads.GOLDENS_PATH.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(goldens)} command lines in {workloads.GOLDENS_PATH.name}")
    for key, reason in bad:
        print(f"not recorded: {key}: {reason}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
