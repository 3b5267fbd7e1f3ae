"""Accepted-finding baseline for ``repro check``.

The whole-program analyses are deliberately strict; some findings they
surface are *accepted* — not yet fixed or disproved, but not allowed to
hide either.  For example, the call graph's name-match fallback can
link a decode entry to an encoder's ``KeyError``; until the edge is
shown to be real (and the call fixed) or the graph is made precise,
the finding stays visible.  Rather than a permanent ``noqa`` comment,
such findings live in a committed baseline file
(``.repro-check-baseline.json``): CI fails on any finding *not* in the
baseline, and a baseline entry that no longer matches anything is
reported as stale so the file can only shrink.

Matching is a multiset subtraction on ``(rule, file, message)`` —
line numbers are excluded so unrelated edits above a baselined site do
not resurrect it.

Triage workflow for a new finding:

1. **Fix it** — the default.
2. **Suppress it** with ``# repro: noqa <rule> (reason)`` when the code
   is right and the analysis is wrong — a permanent, in-source decision.
3. **Baseline it** with ``repro check --write-baseline`` when the
   finding is real-but-accepted and should stay visible in review:
   regenerate the file, commit the diff, and justify the new entry in
   the PR description.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.verify import Finding

BASELINE_FILENAME = ".repro-check-baseline.json"
BASELINE_VERSION = 1

BaselineEntry = Dict[str, str]


def baseline_key(finding: Finding) -> Tuple[str, str, str]:
    """The line-insensitive identity a baseline entry matches on."""
    return (finding.rule, finding.file, finding.message)


def entry_key(entry: BaselineEntry) -> Tuple[str, str, str]:
    return (entry["rule"], entry["file"], entry["message"])


def default_baseline_path() -> Optional[Path]:
    """Locate a committed baseline: cwd first, then the repo root.

    Returns None when no baseline file exists — the check then runs
    raw, which is also the behaviour inside test trees.
    """
    from repro.verify.lint import package_root

    cwd_path = Path.cwd() / BASELINE_FILENAME
    if cwd_path.is_file():
        return cwd_path
    root = package_root().parent.parent  # src/repro -> repo checkout
    repo_path = root / BASELINE_FILENAME
    if repo_path.is_file():
        return repo_path
    return None


def load_baseline(path: Path) -> List[BaselineEntry]:
    """Read and validate a baseline file."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(payload, dict) or payload.get("version") != (
        BASELINE_VERSION
    ):
        raise ValueError(
            f"{path}: not a version-{BASELINE_VERSION} baseline file"
        )
    entries = payload.get("findings")
    if not isinstance(entries, list):
        raise ValueError(f"{path}: missing findings list")
    out: List[BaselineEntry] = []
    for raw in entries:
        if not isinstance(raw, dict) or not all(
            isinstance(raw.get(k), str) for k in ("rule", "file", "message")
        ):
            raise ValueError(f"{path}: malformed baseline entry {raw!r}")
        out.append({
            "rule": raw["rule"],
            "file": raw["file"],
            "message": raw["message"],
        })
    return out


def write_baseline(findings: List[Finding], path: Path) -> None:
    """Serialise the current findings as the new accepted baseline."""
    entries = [
        {"rule": f.rule, "file": f.file, "message": f.message}
        for f in findings
    ]
    entries.sort(key=entry_key)
    payload = {"version": BASELINE_VERSION, "findings": entries}
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def apply_baseline(
    findings: List[Finding], entries: List[BaselineEntry]
) -> Tuple[List[Finding], int, List[BaselineEntry]]:
    """Subtract baselined findings.

    Returns ``(new_findings, matched_count, stale_entries)`` where
    ``stale_entries`` are baseline entries that matched nothing — dead
    weight that should be removed from the file.
    """
    budget: Dict[Tuple[str, str, str], int] = {}
    for entry in entries:
        key = entry_key(entry)
        budget[key] = budget.get(key, 0) + 1
    kept: List[Finding] = []
    matched = 0
    for finding in findings:
        key = baseline_key(finding)
        if budget.get(key, 0) > 0:
            budget[key] -= 1
            matched += 1
        else:
            kept.append(finding)
    stale: List[BaselineEntry] = []
    for entry in entries:
        key = entry_key(entry)
        if budget.get(key, 0) > 0:
            budget[key] -= 1
            stale.append(entry)
    return kept, matched, stale


__all__ = [
    "BASELINE_FILENAME",
    "BASELINE_VERSION",
    "apply_baseline",
    "baseline_key",
    "default_baseline_path",
    "load_baseline",
    "write_baseline",
]
