#!/usr/bin/env python3
"""Run one benchmark workload and print its result.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ledger.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it is the detail document (environment stamp, sample counts,
per-phase figures) that ``compare.py`` reads.  ``--out FILE`` also
writes the detail document, with the result, to ``FILE``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve", "refill", "sweep")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="also write the result here")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}; run from "
              "the root of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    import importlib

    from common import END_TO_END_UNITS, PER_LAYER_UNITS, environment_stamp

    module = importlib.import_module(args.workload)
    outcome = module.run(ROOT, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        from ledger import complete_ledger

        complete_ledger(outcome, args.workload, ROOT, args.seed)
        units, values = PER_LAYER_UNITS, outcome.layers
    else:
        if outcome.attempted:
            outcome.metrics["ok_frac"] = 1.0 - outcome.failed / outcome.attempted
        units, values = END_TO_END_UNITS, outcome.metrics

    problems = list(outcome.invalid)
    missing = sorted(set(units) - set(values))
    if missing:
        problems.append(f"metrics not measured: {', '.join(missing)}")
    declared = _declared_units(bool(args.trace))
    if declared is not None and declared != units:
        problems.append("metric names or units differ from BENCHMARK.json")
    result = {
        "correct": outcome.failed == 0 and outcome.attempted > 0 and not problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": units[name]}
            for name in units if name in values
        },
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "stamp": environment_stamp(ROOT),
        "problems": problems,
        "detail": outcome.detail,
        "result": result,
    }
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(detail, indent=1, default=str) + "\n")
    print(json.dumps(detail, default=str))
    print(json.dumps(result))
    return 0


def _declared_units(trace: bool):
    """Metric → unit map from BENCHMARK.json, or ``None`` without one."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    spec = json.loads(path.read_text())
    rows = spec["per_layer" if trace else "end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


if __name__ == "__main__":
    sys.exit(main())
