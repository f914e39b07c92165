#!/usr/bin/env python3
"""Rewrite perfbench/reference_digests.json.

    python3 perfbench/make_reference.py

Runs each generated workload once per workload seed 0-15 and keeps the
digests of its resampling-free report tables.  ``run.py`` compares every
run on a seed listed here with these digests.  Regenerate only when a change
is meant to alter those tables, and say so where the change is described.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import REFERENCE, RESAMPLING_FREE, WORK_ROOT, WORKLOADS, Session

SEEDS = range(16)


def main() -> int:
    table: dict[str, dict[str, dict[str, str]]] = {}
    WORK_ROOT.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        if workload.generator is None:
            continue  # the fixture is pinned by tests/goldens
        for seed in SEEDS:
            work = Path(tempfile.mkdtemp(prefix="reference-", dir=WORK_ROOT))
            try:
                session = Session(workload, seed, work)
                session.pinned = {}  # build the references, do not check the old ones
                record = session.run()
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if record.problems:
                print(f"{workload.name} seed {seed}: {record.problems}", file=sys.stderr)
                return 1
            table.setdefault(workload.name, {})[str(seed)] = {
                name: record.manifest[name] for name in RESAMPLING_FREE
            }
            print(f"{workload.name} seed {seed}: {record.run_s:.2f} s")
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
