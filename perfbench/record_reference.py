"""Record the reference digests that run.py compares every check against.

Usage, from the repository root: ``python3 perfbench/record_reference.py``.
Runs one iteration of every workload for every pool seed (and the reduced
sizes for seed 0), requires every verdict to PASS, and rewrites
``perfbench/reference.json``.  A digest that is the same for every pool seed
is stored once; otherwise as a list indexed by ``seed % POOL``.
"""

import json
import sys

from run import REFERENCE, import_envalg
from workloads import POOL, WORKLOADS


def digests(workload):
    out = {}
    checks = [check for step in workload.steps for check in step(None)]
    for name, ok, digest in checks:
        if not ok:
            raise SystemExit(f"{workload.name}: check {name} FAILs; not recording")
        out[name] = digest
    return out


def main():
    import_envalg()
    full, small = {}, {}
    for name, make in WORKLOADS.items():
        per_seed = [digests(make(seed)) for seed in range(POOL)]
        table = {}
        for check in per_seed[0]:
            values = [row[check] for row in per_seed]
            table[check] = values[0] if len(set(values)) == 1 else values
        full[name] = table
        small[name] = digests(make(0, small=True))
        print(f"{name}: {len(table)} checks", file=sys.stderr)
    doc = {"pool": POOL, "full": full, "small": small}
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
