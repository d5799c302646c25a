"""Report how far ``chi_polynomial`` climbs the P_k and C3_k ladders.

``python3 bench/ceiling.py``

Each rung, from k = 4 up to MAX_K, runs in its own interpreter, which is
killed once it exceeds BUDGET_S; a ladder stops at its first rung over
budget.  The report is the largest k that finished in time.  It is not part of
the gated benchmark: a ladder that stops at a time budget lets a slower
commit do less work, so the gated workloads use fixed instance sets.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import common
import families

LADDERS = {"P_k": families.path, "C3_k": families.cycle3}
BUDGET_S = 30.0  # per instance
MAX_K = 14

RUNG = """
import sys
sys.path.insert(0, sys.argv[1])
from hyperchi import Hypergraph, chi_polynomial
doc = {doc}
chi_polynomial(Hypergraph(doc["vertices"], doc["edges"]))
"""


def climb(make) -> list:
    rungs = []
    for k in range(4, MAX_K + 1):
        code = RUNG.format(doc=repr(make(k)))
        started = time.perf_counter()
        try:
            subprocess.run([sys.executable, "-s", "-c", code, str(common.SRC)],
                           check=True, timeout=BUDGET_S, capture_output=True)
        except subprocess.TimeoutExpired:
            rungs.append({"k": k, "seconds": None})
            break
        rungs.append({"k": k, "seconds": round(time.perf_counter() - started, 3)})
    return rungs


def main() -> int:
    report = {}
    for name, make in LADDERS.items():
        rungs = climb(make)
        done = [r["k"] for r in rungs if r["seconds"] is not None]
        report[name] = {"ceiling": max(done, default=None), "rungs": rungs}
        print(f"{name}: largest k within {BUDGET_S:g} s = {report[name]['ceiling']}",
              file=sys.stderr)
    print(json.dumps({"budget_s": BUDGET_S, "ladders": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
