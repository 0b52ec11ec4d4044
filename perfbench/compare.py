#!/usr/bin/env python3
"""Compare two sets of reports written by ``run.py --report``.

    python3 perfbench/compare.py --base a1.json a2.json --new b1.json b2.json

Prints, per end-to-end metric, the median of each set, the change as a
share of the base median, and whether it is worse than the metric's
bound in ``BENCHMARK.json``.  Refuses (exit 2) to compare reports of
different workloads, or whose native-tier status or host-profile state
differ, because those change which engines run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def host_key(report: dict) -> tuple:
    host = report["host"]
    return (report["workload"], host["native"]["available"], host["profile"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    base = [json.loads(Path(p).read_text()) for p in args.base]
    new = [json.loads(Path(p).read_text()) for p in args.new]
    keys = {host_key(r) for r in base + new}
    if len(keys) != 1:
        print(f"refusing to compare: workload/native/profile differ: {sorted(map(str, keys))}")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    print(f"workload {base[0]['workload']}: {len(base)} base, {len(new)} new reports")
    for name, (bound, better) in bounds.items():
        b = [r["end_to_end"][name]["value"] for r in base]
        n = [r["end_to_end"][name]["value"] for r in new]
        if None in b or None in n:
            continue
        mb, mn = statistics.median(b), statistics.median(n)
        change = (mn - mb) / mb
        worse = change > bound if better == "lower" else -change > bound
        unit = base[0]["end_to_end"][name]["unit"]
        print(f"  {name:<20} {mb:12.5g} -> {mn:12.5g} {unit:<8} {change:+8.2%}"
              f"{'  WORSE than bound ' + format(bound, '.0%') if worse else ''}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
