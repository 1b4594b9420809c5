"""Record each workload's pool of generator seeds and its reference cost.

    python3 perfbench/record_reference.py

A pool seed is a generator seed whose scenario hosts the workload's fixed
number of prosumers; its reference is the total cost (distributed) or
objective (centralized) of a clearing that passed the rest of the gate.
Re-record only when a change legitimately moves the costs, and say so.
"""

from __future__ import annotations

import json
import sys

import gate
from workloads import REFERENCE_FILE, WORKLOADS, add_source, clear, make_scenario

POOL_SIZE = 16


def main() -> int:
    if not add_source():
        sys.exit("no lemclear sources under src/")
    table = {}
    for w in WORKLOADS.values():
        pool, g = [], 0
        while len(pool) < POOL_SIZE:
            sc = make_scenario(w, g)
            if len(sc.prosumers) == w.prosumers:
                res = clear(w, sc)
                issues = gate.check(w, sc, res, None)
                if issues:
                    sys.exit(f"{w.name} generator seed {g}: {issues}")
                pool.append([g, gate.total_cost(w, res)])
                print(w.name, g, pool[-1][1], flush=True)
            g += 1
        table[w.name] = pool
    REFERENCE_FILE.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
