"""Record the per-seed reference outputs that the benchmark checks against.

    python3 perfbench/record_reference.py --workload sweep-2k --seeds 0 1 2

Runs a workload's set-up and one operation per seed on the current code
and stores what the operation produced in perfbench/reference.json:
per-epoch ``loss_total`` and ``test_acc`` for train-supra-20k, the sweep
CSV lines for sweep-2k and the dataset file digests for data-200k.
Re-record only after an intended change of the outputs has been reviewed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    args = p.parse_args(argv)

    from environment import THREAD_VARS
    os.environ.update({var: "1" for var in THREAD_VARS})   # before numpy loads
    sys.path.insert(0, str(BENCH.parent / "src"))
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    reference = workloads.load_reference()
    (BENCH / ".work").mkdir(exist_ok=True)
    for seed in args.seeds:
        with tempfile.TemporaryDirectory(dir=BENCH / ".work") as work:
            workload = cls(work, seed, reference={})
            workload.setup()
            op = workload.run_op()
        if op.failed:
            print(f"seed {seed}: not recorded, {op.problems}", file=sys.stderr)
            return 1
        reference.setdefault(args.workload, {})[str(seed)] = op.observed
        print(f"seed {seed}: recorded", flush=True)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        fh.write(dumps(reference))
    return 0


def dumps(reference: dict) -> str:
    """JSON with one line per (workload, seed) entry, so diffs stay readable."""
    blocks = []
    for name in sorted(reference):
        seeds = sorted(reference[name], key=int)
        rows = ",\n".join(f'  "{s}": {json.dumps(reference[name][s], sort_keys=True)}'
                          for s in seeds)
        blocks.append(f' "{name}": {{\n{rows}\n }}')
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
