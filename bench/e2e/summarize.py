#!/usr/bin/env python3
"""Summarizes repeated benchmark passes written by run.sh --repeat.

Input: one line per run, WORKLOAD<TAB>RESULT_JSON. Output: per workload and
metric, the median, the first and third quartiles (statistics.quantiles with
n=4) and the quartile spread (Q3 - Q1) / median.

    python3 summarize.py build-e2e/repeat-results.tsv
"""

import json
import statistics
import sys
from collections import defaultdict


def main(path):
    runs = defaultdict(list)
    with open(path) as f:
        for line in f:
            workload, _, result = line.rstrip("\n").partition("\t")
            runs[workload].append(json.loads(result))
    for workload, results in runs.items():
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"{workload}: {len(results)} runs, "
              f"{failed} of {attempted} ops failed")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            if len(values) > 1:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = median
            spread = (q3 - q1) / median if median else float("nan")
            print(f"  {name:28s} median {median:12.6g} {first['unit']:6s}"
                  f" q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:7.4f}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: summarize.py RESULTS.tsv")
    main(sys.argv[1])
