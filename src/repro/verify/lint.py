"""Layer 2: the repo-specific AST lint engine.

Generic lint tools cannot know that ``entropy/arith.py`` must stay
float-free or that ``pipeline/fingerprint.py`` must never iterate an
unordered container — those are *this repo's* correctness contracts.
This module supplies the machinery; :mod:`repro.verify.rules` supplies
the contracts.

Two rule shapes exist:

* :class:`FileRule` — scoped to a set of package-relative path
  prefixes; receives one parsed module at a time.
* :class:`ProjectRule` — receives every parsed module at once, for
  cross-module contracts (the whole-program analyses of
  :mod:`repro.verify.contracts`).

Suppression: a finding whose source line carries ``# repro: noqa``
(all rules) or ``# repro: noqa <rule-id> ...`` (listed rules) is
dropped, mirroring how flake8-style tools opt out line by line.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.verify import Finding

_NOQA_MARKER = "# repro: noqa"


@dataclass(frozen=True)
class ParsedModule:
    """One source file: its display path, AST, and raw lines."""

    relpath: str      # package-relative, e.g. "entropy/arith.py"
    display: str      # reported in findings, e.g. "src/repro/entropy/arith.py"
    tree: ast.Module
    lines: Tuple[str, ...]


class FileRule:
    """A rule scoped to files whose relpath starts with one of ``paths``."""

    rule_id: str = ""
    severity: str = "error"
    description: str = ""
    paths: Tuple[str, ...] = ()

    def applies_to(self, relpath: str) -> bool:
        return any(relpath.startswith(prefix) for prefix in self.paths)

    def check(self, module: ParsedModule) -> List[Finding]:
        raise NotImplementedError


class ProjectRule:
    """A rule that inspects every module at once (cross-module contracts)."""

    rule_id: str = ""
    severity: str = "error"
    description: str = ""

    def check_project(self, modules: Sequence[ParsedModule]) -> List[Finding]:
        raise NotImplementedError


def package_root() -> Path:
    """The installed ``repro`` package directory."""
    return Path(__file__).resolve().parent.parent


def _display_prefix(root: Path) -> str:
    """Report paths as ``src/repro/...`` when run from a source layout."""
    if root.parent.name == "src":
        return "src/repro/"
    return f"{root.name}/"


def parse_tree(root: Optional[Path] = None) -> List[ParsedModule]:
    """Parse every ``.py`` file under ``root`` (default: the package)."""
    base = root if root is not None else package_root()
    prefix = _display_prefix(base)
    modules: List[ParsedModule] = []
    for path in sorted(base.rglob("*.py")):
        relpath = path.relative_to(base).as_posix()
        source = path.read_text(encoding="utf-8")
        modules.append(ParsedModule(
            relpath=relpath,
            display=prefix + relpath,
            tree=ast.parse(source, filename=str(path)),
            lines=tuple(source.splitlines()),
        ))
    return modules


def _suppressed(finding: Finding, module: ParsedModule) -> bool:
    """True when the flagged line opts out via ``# repro: noqa``."""
    if not 1 <= finding.line <= len(module.lines):
        return False
    line = module.lines[finding.line - 1]
    marker = line.find(_NOQA_MARKER)
    if marker < 0:
        return False
    remainder = line[marker + len(_NOQA_MARKER):].strip()
    if not remainder:
        return True  # bare noqa suppresses every rule on the line
    return finding.rule in remainder.replace(",", " ").split()


def run_lint(
    rules: Iterable[object],
    root: Optional[str] = None,
    modules: Optional[Sequence[ParsedModule]] = None,
) -> List[Finding]:
    """Run the given rules over the source tree, honouring noqa lines."""
    if modules is None:
        modules = parse_tree(Path(root) if root is not None else None)
    by_relpath: Dict[str, ParsedModule] = {m.relpath: m for m in modules}
    findings: List[Finding] = []
    for rule in rules:
        if isinstance(rule, FileRule):
            for module in modules:
                if rule.applies_to(module.relpath):
                    findings.extend(rule.check(module))
        elif isinstance(rule, ProjectRule):
            findings.extend(rule.check_project(modules))
        else:
            raise TypeError(f"unknown rule kind {type(rule).__name__}")
    kept = []
    for finding in findings:
        module = _module_for(finding, by_relpath)
        if module is None or not _suppressed(finding, module):
            kept.append(finding)
    return kept


def _module_for(
    finding: Finding, by_relpath: Dict[str, ParsedModule]
) -> Optional[ParsedModule]:
    for module in by_relpath.values():
        if module.display == finding.file:
            return module
    return None
