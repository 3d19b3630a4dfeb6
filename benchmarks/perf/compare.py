#!/usr/bin/env python3
"""Compare two sets of benchmark results, workload by metric.

    python3 benchmarks/perf/compare.py A B

``A`` and ``B`` are directories of result files written by
``run.py --out`` (any depth: ``A/run-3/loopback_1k.json``); several
runs of one workload inside a set are pooled.  For each workload and
each end-to-end metric it prints both medians with their quartiles and
one verdict:

``ok``          B's median is no worse than A's by more than the bound
``regressed``   it is worse by more than the bound
``unresolved``  the run-to-run spread inside a set (distance between
                its quartiles, as a share of its median) is wider than
                the bound, so the two medians cannot be told apart

Exact metrics (simulated results) must be equal seed by seed; a metric
with an absolute bound may grow by that amount.  Exit status is 1 if any row
regressed, 2 if none regressed but some are unresolved, else 0.  The
same check serves "do two runs of one commit agree?" (no row may be
unresolved or regressed) and "did this change regress anything?".
"""

from __future__ import annotations

import json
import os
import sys
from statistics import median

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from harness import quartiles  # noqa: E402
from metrics import (END_TO_END, TRACE_ONLY, WORKLOAD_METRICS,  # noqa: E402
                     WORKLOAD_NAMES)


def load(path: str) -> dict:
    """workload -> metric -> list of (seed, value), one per result file.

    Traced result files contribute only the end-to-end metrics that
    exist nowhere else (:data:`TRACE_ONLY`): everything else they hold
    was measured with wrappers installed or on half the ops.
    """
    pooled: dict = {}
    files = [path] if os.path.isfile(path) else []
    for base, _dirs, names in os.walk(path):
        files.extend(os.path.join(base, n) for n in sorted(names)
                     if n.endswith(".json"))
    for name in files:
        with open(name) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict) or "end_to_end" not in doc:
            continue
        values = dict(doc["workload_metrics"])
        if doc["trace"]:
            values = {k: v for k, v in values.items() if k in TRACE_ONLY}
        else:
            values.update(doc["end_to_end"])
        into = pooled.setdefault(doc["workload"], {})
        for metric, value in values.items():
            into.setdefault(metric, []).append((doc["seed"], value))
    return pooled


def _spread(values: list) -> float:
    q1, _q2, q3 = quartiles(values)
    return q3 - q1


def verdict(a: list, b: list, better: str, bound) -> str:
    """``a`` and ``b`` are lists of (seed, value)."""
    if bound == "exact":
        # Simulated results depend on the seed and on nothing else: every
        # seed must have exactly one value, the same in both sets.
        by_seed: dict = {}
        for seed, value in a + b:
            by_seed.setdefault(seed, set()).add(value)
        return ("ok" if all(len(v) == 1 for v in by_seed.values())
                else "regressed")
    a, b = [v for _s, v in a], [v for _s, v in b]
    ma, mb = median(a), median(b)
    worse = (mb - ma) if better == "lower" else (ma - mb)
    if isinstance(bound, str):  # "abs:<x>"
        limit = float(bound.split(":")[1])
    else:
        limit = bound * abs(ma)
    if max(_spread(a), _spread(b)) > limit:
        return "unresolved"
    return "regressed" if worse > limit else "ok"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 64
    a_set, b_set = load(argv[0]), load(argv[1])
    rows = [(n, u, b, bd, WORKLOAD_NAMES) for n, u, b, bd in END_TO_END]
    rows += list(WORKLOAD_METRICS)
    counts = {"ok": 0, "regressed": 0, "unresolved": 0, "missing": 0}
    print(f"{'workload':<20}{'metric':<31}{'unit':<7}"
          f"{'A median [q1, q3] n':<40}{'B median [q1, q3] n':<40}verdict")
    for workload in WORKLOAD_NAMES:
        if workload not in a_set and workload not in b_set:
            continue  # e.g. sets of the four gated workloads only
        for name, unit, better, bound, on in rows:
            if workload not in on:
                continue
            a = a_set.get(workload, {}).get(name)
            b = b_set.get(workload, {}).get(name)
            if not a and not b and name in TRACE_ONLY:
                continue  # neither set holds a traced run
            if not a or not b:
                counts["missing"] += 1
                print(f"{workload:<20}{name:<31}{unit:<7}"
                      f"{'-' if not a else 'present':<40}"
                      f"{'-' if not b else 'present':<40}missing")
                continue
            result = verdict(a, b, better, bound)
            counts[result] += 1
            cells = []
            for values in (a, b):
                q1, q2, q3 = quartiles([v for _s, v in values])
                cells.append(f"{q2:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}")
            print(f"{workload:<20}{name:<31}{unit:<7}"
                  f"{cells[0]:<40}{cells[1]:<40}{result}")
    print(" ".join(f"{k}={v}" for k, v in counts.items()))
    if counts["regressed"] or counts["missing"]:
        return 1
    return 2 if counts["unresolved"] else 0


if __name__ == "__main__":
    sys.exit(main())
