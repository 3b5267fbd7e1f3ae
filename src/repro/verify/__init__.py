"""Static verification: codec-invariant checks plus a repo AST linter.

The paper's central property is *decodability by construction*: SAMC and
SADC tables must be uniquely decodable at cache-block granularity, and
the fastpath split makes bit-identity with the reference path a hard
contract.  Until now only runtime round-trips exercised those
invariants; this package checks them statically, in two layers:

* **Layer 1 — codec artifacts** (:mod:`repro.verify.codec_checks`):
  prefix-freeness and Kraft completeness of every Huffman table,
  unique-decodability and coverage of SADC dictionaries, SAMC model
  well-formedness (no zero-mass branch in any quantised probability,
  no unreachable tree replicas), and bit-field layout tiling for the
  MIPS/x86 instruction formats.
* **Layer 2 — source lint** (:mod:`repro.verify.lint` +
  :mod:`repro.verify.rules`): AST rules encoding repo-specific
  contracts — no float arithmetic in bit-exact coder hot paths, no
  unordered-container iteration in fingerprint/serialise paths, no
  unseeded randomness in workload generators, no wall-clock reads in
  codec code, and no bare ``assert`` in decoders.

Everything surfaces as :class:`Finding` records so ``python -m repro
check`` can render them as text or JSON and gate CI with ``--strict``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"
SEVERITIES = (SEVERITY_ERROR, SEVERITY_WARNING)


@dataclass(frozen=True)
class Finding:
    """One verification result: a rule violation at a source location.

    ``file`` is repo-relative when the package runs from a source
    checkout (``src/repro/...``); artifact-level findings point at the
    module that defines the offending structure.
    """

    rule: str
    severity: str
    file: str
    line: int
    message: str

    def format(self) -> str:
        """Render in the conventional ``file:line: severity[rule]`` shape."""
        return (
            f"{self.file}:{self.line}: "
            f"{self.severity}[{self.rule}] {self.message}"
        )

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


def sort_findings(findings: List[Finding]) -> List[Finding]:
    """Deterministic order: errors first, then file/line/rule."""
    return sorted(
        findings,
        key=lambda f: (f.severity != SEVERITY_ERROR, f.file, f.line, f.rule),
    )


def exit_status(findings: List[Finding], strict: bool = False) -> int:
    """Exit code for a check run.

    ``--strict`` fails on *any* finding (the CI gate); the default only
    fails on errors, so warnings can accumulate without breaking local
    workflows.
    """
    if strict:
        return 1 if findings else 0
    return 1 if any(f.severity == SEVERITY_ERROR for f in findings) else 0


def run_all_checks(
    artifact_scale: float = 0.25,
    artifacts: bool = True,
) -> List[Finding]:
    """Run every verification layer and return the merged findings.

    ``artifact_scale`` sizes the deterministic sample corpus the layer-1
    checks build their tables from; ``artifacts=False`` skips layer 1.
    The AST rules and the whole-program contract analyses always run,
    over the installed package.
    """
    from repro.verify.codec_checks import run_artifact_checks
    from repro.verify.lint import run_lint
    from repro.verify.rules import default_rules

    findings: List[Finding] = []
    if artifacts:
        findings.extend(run_artifact_checks(scale=artifact_scale))
    findings.extend(run_lint(default_rules()))
    return sort_findings(findings)


__all__ = [
    "Finding",
    "SEVERITIES",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "exit_status",
    "run_all_checks",
    "sort_findings",
]
