"""Record reference outputs of the first items of each workload at the default seed.

    python3 perfbench/make_reference.py

Writes perfbench/reference.json. A run at the default seed compares each of
these items with its record, within the error bounds in checks.py. Record
again only when a change is meant to alter outputs beyond those bounds.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import checks
import worker
import workloads

#: one or more whole rounds of each workload's parameter combinations
REFERENCE_ITEMS = {"mc_boxes": 9, "mc_large_box": 36, "limit_grid": 18}


def main() -> int:
    os.makedirs(worker.OUT_DIR, exist_ok=True)
    recorded = {}
    with tempfile.TemporaryDirectory(dir=worker.OUT_DIR) as tmpdir:
        runner = worker.Runner(tmpdir)
        for workload, count in REFERENCE_ITEMS.items():
            recorded[workload] = []
            for index in range(count):
                item = workloads.make_item(workload, workloads.DEFAULT_SEED, index)
                _, raw = runner.run(item)
                outputs, problems = runner.outputs(item, raw)
                problems += checks.invariant_failures(item, outputs)
                if problems:
                    print(f"{workload} item {index}: {problems}", file=sys.stderr)
                    return 1
                recorded[workload].append({k: v for k, v in outputs.items()
                                           if k.rsplit("|", 1)[1] not in checks.SKIP_COLUMNS})
    with open(os.path.join(worker.HERE, "reference.json"), "w", encoding="utf-8") as handle:
        json.dump({"seed": workloads.DEFAULT_SEED, "workloads": recorded}, handle, indent=1,
                  sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
