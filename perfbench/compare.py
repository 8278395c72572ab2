#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE_DIR [NEW_DIR]

Each directory holds result files written by run.py (``.bench_out/results``
after a series of runs, copied aside per commit).  For every workload, run
mode and end-to-end metric it prints the median and quartiles of each set
and the spread (quartile distance over median).  With two sets it also
prints the change of the median and whether it stays within the metric's
bound; the exit code is 1 if any metric leaves its bound.  Per-layer
metrics have no bound and are listed with their medians only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from run import END_TO_END


def load(directory: Path) -> dict:
    """{(workload, trace): {metric: [values]}} over every result file."""
    values = defaultdict(lambda: defaultdict(list))
    for path in sorted(directory.glob("*.json")):
        result = json.loads(path.read_text())
        key = (result["workload"], result["trace"])
        for name, metric in result["metrics"].items():
            values[key][name].append(metric["value"])
    if not values:
        sys.exit(f"compare: no result files in {directory}")
    return values


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def within_bound(name, base, new) -> bool:
    _, better, bound, _ = END_TO_END[name]
    if better == "lower":
        return new <= base * (1.0 + bound)
    return new >= base * (1.0 - bound)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path, nargs="?")
    args = parser.parse_args(argv)
    base = load(args.base)
    new = load(args.new) if args.new else None
    regressions = 0
    for key in sorted(base):
        workload, trace = key
        print(f"== {workload} ({'traced' if trace else 'untraced'}, {len(next(iter(base[key].values())))} runs)")
        for name, values in sorted(base[key].items()):
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            line = f"  {name:38s} median {med:12.6g} q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.2%}"
            bound = END_TO_END.get(name, (None, None, None))[2]
            if bound is not None:
                line += f" bound {bound:.0%}"
            if new is not None and name in new.get(key, {}):
                n1, n_med, n3 = quartiles(new[key][name])
                change = (n_med - med) / med if med else 0.0
                line += f" | new median {n_med:12.6g} q1 {n1:12.6g} q3 {n3:12.6g} change {change:+7.2%}"
                if bound is not None:
                    ok = within_bound(name, med, n_med)
                    regressions += not ok
                    line += " ok" if ok else " OUT OF BOUND"
            print(line)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
