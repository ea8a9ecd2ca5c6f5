#!/usr/bin/env python3
"""Summarizes a traced run's span file by root kind.

usage: python3 perfbench/spans.py .bench_out/spans-<workload>-<seed>.jsonl

For each root name (op.caffeinemark, op.jess, op.embed, ...): the number
of operations, the mean root duration, and the mean duration per
operation of every child and attribution call, plus the residual (root
minus children). All times in ms.
"""

import collections
import json
import sys


def main(path):
    roots = {}
    calls = collections.defaultdict(list)
    for line in open(path):
        span = json.loads(line)
        if "span" not in span:
            continue
        if span["kind"] == "root":
            roots[span["op"]] = (span["span"], span["dur_ns"])
        else:
            calls[span["op"]].append(span)
    by_root = collections.defaultdict(lambda: collections.defaultdict(float))
    counts = collections.Counter()
    for op, (name, dur) in roots.items():
        counts[name] += 1
        row = by_root[name]
        row["(root)"] += dur
        children = 0
        for span in calls.get(op, []):
            key = ("" if span["kind"] == "child" else "attribution: ") + span["span"]
            row[key] += span["dur_ns"]
            if span["kind"] == "child":
                children += span["dur_ns"]
        row["(residual)"] += dur - children
    for name in sorted(by_root):
        n = counts[name]
        print(f"{name}: {n} operations")
        for key, total in sorted(by_root[name].items()):
            print(f"  {key:40s} {total / n / 1e6:10.4f} ms")


if __name__ == "__main__":
    main(sys.argv[1])
