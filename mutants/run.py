"""Mutation runner: how much of a module's behaviour do the tests pin?

Parses a module with :mod:`ast`, applies one mutation operator at a
time, writes each mutant into a fresh scratch copy of the tree, and runs
the named test files against it in one subprocess.  A mutant the tests
fail on is *killed*; one they pass on *survived*, and is either a gap in
the tests or equivalent to the original code.

Operators:

* ``compare`` -- ``<``/``<=``, ``>``/``>=``, ``<``/``>`` and ``==``/``!=``
  swaps, one comparison operator at a time;
* ``const`` -- an integer constant plus or minus one;
* ``boolop`` -- ``and``/``or``;
* ``minmax`` -- a call of ``min`` made ``max``, and the reverse;
* ``pass`` -- a statement replaced by ``pass``.

Only code inside functions is mutated.  A mutant is named
``<function>:<operator>:<ordinal>``: the chain of enclosing function
names, the operator, and its ordinal among that operator's mutants in
that function, in source order.  Module and class names are left out,
so a function moved to another module, or a method moved out of its
class, keeps its mutants' names, and ``--sample N --seed S`` draws the
same mutants from both trees: each name is ranked by a hash of the seed
and the name, and the N lowest run.

Every mutant's tests run with ``-x -p no:cacheprovider`` and a fixed
``--hypothesis-seed``, in a copy that carries no ``.hypothesis``
directory, so no example database is shared between mutants.  The
unmutated tree runs first and must pass; each mutant's timeout is four
times its time, and at least 30 s.

Usage::

    python mutants/run.py --module src/repro/entropy/huffman.py \\
        --tests tests/test_huffman.py --function code_lengths \\
        --hypothesis-seed 1

``--root`` names the tree to mutate (default: the current directory),
``--module`` may be repeated to mutate several modules as one target,
and ``--json PATH`` writes the report as JSON.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import copy
import difflib
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

COMPARE_SWAPS = {
    ast.Lt: (ast.LtE, ast.Gt),
    ast.LtE: (ast.Lt,),
    ast.Gt: (ast.GtE, ast.Lt),
    ast.GtE: (ast.Gt,),
    ast.Eq: (ast.NotEq,),
    ast.NotEq: (ast.Eq,),
}

#: What a scratch copy of the tree leaves out.
COPY_IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", "*.pyc", ".pytest_cache", ".hypothesis",
    "*.egg-info", ".bench_build",
)


@dataclass(frozen=True)
class Mutant:
    """One mutation: the span of ``path`` it replaces, and with what."""

    name: str
    path: str
    line: int
    start: Tuple[int, int]
    end: Tuple[int, int]
    replacement: str
    description: str

    def apply(self, source: str) -> str:
        """``source`` with this mutant's span replaced."""
        lines = source.split("\n")
        begin = _offset(lines, *self.start)
        stop = _offset(lines, *self.end)
        return source[:begin] + self.replacement + source[stop:]


def _offset(lines: List[str], line: int, col: int) -> int:
    """Character offset of an ast position (1-based line, byte column)."""
    head = sum(len(text) + 1 for text in lines[: line - 1])
    return head + len(lines[line - 1].encode()[:col].decode())


def _span(node: ast.AST) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    return (node.lineno, node.col_offset), (node.end_lineno, node.end_col_offset)


def collect(
    source: str, path: str, counters: Optional[Dict] = None
) -> List[Mutant]:
    """Every mutant of ``source``, in source order.

    ``counters`` carries ordinals across modules, so a target made of
    several modules names its mutants as one module would.
    """
    counters = {} if counters is None else counters
    mutants: List[Mutant] = []
    text_lines = source.split("\n")

    def add(chain, operator, node, replacement, description):
        key = (chain, operator)
        ordinal = counters.get(key, 0)
        counters[key] = ordinal + 1
        start, end = _span(node)
        mutants.append(Mutant(
            name=f"{'.'.join(chain)}:{operator}:{ordinal}",
            path=path,
            line=node.lineno,
            start=start,
            end=end,
            replacement=replacement,
            description=description,
        ))

    def expr_mutant(chain, operator, node, mutated):
        before = ast.unparse(node)
        after = ast.unparse(mutated)
        add(chain, operator, node, f"({after})", f"{before} -> {after}")

    def visit(node: ast.AST, chain: Tuple[str, ...]) -> None:
        if isinstance(node, ast.JoinedStr):
            return  # positions inside f-strings are not reliable
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for child in node.decorator_list + [node.args]:
                visit(child, chain)
            if node.returns is not None:
                visit(node.returns, chain)
            inner = chain + (node.name,)
            for stmt in node.body:
                visit(stmt, inner)
            return
        if isinstance(node, ast.ClassDef):
            for child in node.decorator_list + node.bases + node.keywords:
                visit(child, chain)
            for stmt in node.body:
                visit(stmt, chain)
            return
        if chain:
            mutate(node, chain)
        for child in ast.iter_child_nodes(node):
            visit(child, chain)

    def mutate(node: ast.AST, chain: Tuple[str, ...]) -> None:
        if isinstance(node, ast.stmt) and not _keeps(node):
            first = text_lines[node.lineno - 1].strip()
            add(chain, "pass", node, "pass", f"{first} -> pass")
        elif isinstance(node, ast.Compare):
            for index, op in enumerate(node.ops):
                for swap in COMPARE_SWAPS.get(type(op), ()):
                    mutated = copy.deepcopy(node)
                    mutated.ops[index] = swap()
                    expr_mutant(chain, "compare", node, mutated)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, int)
            and not isinstance(node.value, bool)
        ):
            for delta in (1, -1):
                expr_mutant(
                    chain, "const", node, ast.Constant(node.value + delta)
                )
        elif isinstance(node, ast.BoolOp):
            mutated = copy.deepcopy(node)
            mutated.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
            expr_mutant(chain, "boolop", node, mutated)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("min", "max")
        ):
            mutated = copy.deepcopy(node)
            mutated.func.id = "max" if node.func.id == "min" else "min"
            expr_mutant(chain, "minmax", node, mutated)

    visit(ast.parse(source), ())
    return mutants


def _keeps(stmt: ast.stmt) -> bool:
    """Statements never replaced by ``pass``: definitions (deleting one
    only raises NameError), docstrings, and ``pass`` itself."""
    kept = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Pass)
    if isinstance(stmt, kept):
        return True
    return (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Constant)
        and isinstance(stmt.value.value, str)
    )


def select(
    mutants: Sequence[Mutant],
    functions: Sequence[str] = (),
    sample: Optional[int] = None,
    seed: int = 0,
) -> List[Mutant]:
    """The mutants in ``functions`` (all if empty), then a seeded sample.

    A function matches by its full dotted chain or its first name, so
    ``--function f`` takes the functions nested in ``f`` too.
    """
    if functions:
        wanted = set(functions)
        mutants = [
            m for m in mutants
            if m.name.split(":")[0] in wanted
            or m.name.split(":")[0].split(".")[0] in wanted
        ]
    if sample is not None and sample < len(mutants):
        def rank(mutant: Mutant) -> str:
            return hashlib.sha256(f"{seed}:{mutant.name}".encode()).hexdigest()

        chosen = {m.name for m in sorted(mutants, key=rank)[:sample]}
        mutants = [m for m in mutants if m.name in chosen]
    return list(mutants)


def diff(source: str, mutant: Mutant) -> str:
    """Unified diff of one mutant against its module."""
    return "".join(difflib.unified_diff(
        source.splitlines(keepends=True),
        mutant.apply(source).splitlines(keepends=True),
        f"a/{mutant.path}",
        f"b/{mutant.path}",
        n=2,
    ))


def run_tests(
    root: Path,
    tests: Sequence[str],
    hypothesis_seed: int,
    timeout: Optional[float],
    patch: Optional[Tuple[str, str]] = None,
) -> Tuple[str, float]:
    """Run ``tests`` in a fresh copy of ``root``, with ``patch`` =
    (path, source) written over one file.

    Returns ("passed" | "failed" | "timeout", seconds).
    """
    scratch = Path(tempfile.mkdtemp(prefix="mutant-"))
    tree = scratch / "tree"
    try:
        shutil.copytree(root, tree, ignore=COPY_IGNORE)
        if patch is not None:
            (tree / patch[0]).write_text(patch[1])
        env = dict(os.environ)
        src = str(tree / "src")
        if env.get("PYTHONPATH"):
            src += os.pathsep + env["PYTHONPATH"]
        env["PYTHONPATH"] = src
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        command = [
            sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            f"--hypothesis-seed={hypothesis_seed}", *tests,
        ]
        started = time.monotonic()
        process = subprocess.Popen(
            command, cwd=tree, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, start_new_session=True,
        )
        try:
            code = process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
            return "timeout", time.monotonic() - started
        seconds = time.monotonic() - started
        # Usage error, or no tests collected: on the unmutated tree a
        # misconfigured run.  A mutant gets status 4 when it makes a
        # conftest fail to import, which detects it.
        if code in (4, 5) and patch is None:
            raise RuntimeError(f"pytest exited {code}: check --tests")
        return ("passed" if code == 0 else "failed"), seconds
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run(
    root: Path,
    modules: Sequence[str],
    tests: Sequence[str],
    functions: Sequence[str] = (),
    sample: Optional[int] = None,
    seed: int = 0,
    hypothesis_seed: int = 0,
    timeout: Optional[float] = None,
    log=None,
) -> dict:
    """Run every selected mutant; return the report as a dict.

    ``timeout`` replaces the per-mutant timeout worked out from the
    clean run; the self-test uses it to catch a looping mutant quickly.
    """
    sources: Dict[str, str] = {}
    everything: List[Mutant] = []
    counters: Dict = {}
    for path in modules:
        sources[path] = (root / path).read_text()
        everything.extend(collect(sources[path], path, counters))
    chosen = select(everything, functions, sample, seed)

    status, baseline = run_tests(root, tests, hypothesis_seed, None)
    if status != "passed":
        raise RuntimeError("the unmutated tree fails its tests")
    if timeout is None:
        timeout = max(30.0, 4 * baseline)

    killed: List[str] = []
    survived: List[dict] = []
    timed_out: List[str] = []
    invalid: List[str] = []
    for index, mutant in enumerate(chosen, 1):
        mutated = mutant.apply(sources[mutant.path])
        try:
            compile(mutated, mutant.path, "exec")
        except SyntaxError:
            invalid.append(mutant.name)
            continue
        outcome, seconds = run_tests(
            root, tests, hypothesis_seed, timeout, (mutant.path, mutated)
        )
        if outcome == "failed":
            killed.append(mutant.name)
        elif outcome == "timeout":
            timed_out.append(mutant.name)
        else:
            survived.append({
                "name": mutant.name,
                "path": mutant.path,
                "line": mutant.line,
                "mutation": mutant.description,
                "diff": diff(sources[mutant.path], mutant),
            })
        if log is not None:
            log(f"[{index}/{len(chosen)}] {mutant.name} {outcome} "
                f"({seconds:.1f}s) {mutant.description}")

    scored = len(killed) + len(survived)
    return {
        "modules": list(modules),
        "tests": list(tests),
        "functions": list(functions),
        "seed": seed,
        "sample": sample,
        "hypothesis_seed": hypothesis_seed,
        "timeout_s": round(timeout, 1),
        "baseline_s": round(baseline, 1),
        "candidates": len(select(everything, functions)),
        "mutants": len(chosen),
        "killed": killed,
        "survived": survived,
        "timed_out": timed_out,
        "invalid": invalid,
        "kill_rate": round(len(killed) / scored, 4) if scored else None,
    }


def render(report: dict) -> str:
    """The report as text: counts, kill rate, and each survivor's diff."""
    lines = [
        f"modules: {' '.join(report['modules'])}",
        f"tests: {' '.join(report['tests'])}",
        f"mutants: {report['mutants']} of {report['candidates']}"
        f" (seed {report['seed']}, hypothesis seed {report['hypothesis_seed']})",
        f"killed {len(report['killed'])}, survived {len(report['survived'])}, "
        f"timed out {len(report['timed_out'])}, invalid {len(report['invalid'])}",
    ]
    rate = report["kill_rate"]
    scored = len(report["killed"]) + len(report["survived"])
    lines.append(
        "kill rate: n/a" if rate is None
        else f"kill rate: {rate:.1%} ({len(report['killed'])} / {scored})"
    )
    for name in report["timed_out"]:
        lines.append(f"timed out: {name}")
    for survivor in report["survived"]:
        lines.append("")
        lines.append(
            f"survived: {survivor['name']} (line {survivor['line']}) "
            f"{survivor['mutation']}"
        )
        lines.append(survivor["diff"].rstrip("\n"))
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=".", help="tree to mutate")
    parser.add_argument(
        "--module", action="append", required=True,
        help="module to mutate, relative to the root (repeatable)",
    )
    parser.add_argument(
        "--tests", nargs="+", required=True, help="test files to run"
    )
    parser.add_argument(
        "--function", action="append", default=[],
        help="only mutate this function (repeatable)",
    )
    parser.add_argument("--sample", type=int, help="run N mutants")
    parser.add_argument("--seed", type=int, default=0, help="sample seed")
    parser.add_argument("--hypothesis-seed", type=int, default=0)
    parser.add_argument("--json", help="also write the report here")
    args = parser.parse_args(argv)
    report = run(
        Path(args.root).resolve(), args.module, args.tests, args.function,
        args.sample, args.seed, args.hypothesis_seed,
        log=lambda line: print(line, file=sys.stderr, flush=True),
    )
    print(render(report))
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
