#!/usr/bin/env python3
"""Compare two sets of benchmark results, metric by metric.

Usage::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 20 --out old1.json
    ...
    python3 perfbench/compare.py --old old*.json --new new*.json [--force]

Each file is the document ``run.py --out`` writes.  Every file must be
from the same workload and trace mode, and all must carry the same
machine stamp (CPU count and model, Python and numpy versions, and the
``REPRO_*`` switches); otherwise the comparison is refused unless
``--force`` is given.  For each metric it prints both medians and their
quartile spreads, and, for end-to-end metrics, whether the new median
is worse than the old by more than the bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from common import MACHINE_KEYS, stamp_mismatches

ROOT = Path(__file__).resolve().parent.parent


def _load(paths):
    return [json.loads(Path(path).read_text()) for path in paths]


def _spread(values):
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (high - low) / middle if middle else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--old", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    parser.add_argument("--force", action="store_true",
                        help="compare even when the machine stamps differ")
    args = parser.parse_args(argv)
    old, new = _load(args.old), _load(args.new)
    everything = old + new
    kinds = {(doc["workload"], doc["trace"]) for doc in everything}
    if len(kinds) != 1:
        print(f"refusing: results mix workloads/trace modes {sorted(kinds)}",
              file=sys.stderr)
        return 2
    reference = everything[0]["stamp"]
    differing = sorted({
        key for doc in everything
        for key in stamp_mismatches(reference, doc["stamp"])
    })
    if differing:
        print("machine stamps differ on: " + ", ".join(differing),
              file=sys.stderr)
        if not args.force:
            print("refusing to compare (pass --force to override); stamp "
                  f"keys compared: {', '.join(MACHINE_KEYS)}", file=sys.stderr)
            return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = {row["name"]: row for row in spec["end_to_end"] + spec["per_layer"]}
    regressions = 0
    print(f"{'metric':34s} {'old':>12s} {'new':>12s} {'change':>8s} "
          f"{'spread old/new':>15s}  verdict")
    for name in everything[0]["result"]["metrics"]:
        olds = [doc["result"]["metrics"][name]["value"] for doc in old]
        news = [doc["result"]["metrics"][name]["value"] for doc in new]
        a, b = statistics.median(olds), statistics.median(news)
        change = (b - a) / a if a else 0.0
        row = rows.get(name, {})
        worse = change if row.get("better") == "lower" else -change
        verdict = ""
        if "bound" in row:
            if worse > row["bound"]:
                verdict = f"REGRESSION (bound {row['bound']:.0%})"
                regressions += 1
            else:
                verdict = "within bound"
        print(f"{name:34s} {a:12.4f} {b:12.4f} {change:+8.1%} "
              f"{_spread(olds):7.1%}/{_spread(news):<7.1%}  {verdict}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
