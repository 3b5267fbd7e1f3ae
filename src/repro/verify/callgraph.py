"""Project-wide call graph over the package's Python AST.

The whole-program analyses in :mod:`repro.verify.contracts` need to
answer one question cheaply and *soundly over-approximately*: starting
from an untrusted-input entry point, which functions can run?  Python
offers no static dispatch, so the graph resolves calls in three tiers:

1. **Lexical** — ``foo()`` where ``foo`` is defined in the same module
   resolves to that definition (module level preferred, then a nested
   def of the name).  A bare name never calls a method, so methods are
   not candidates here; an imported ``foo`` is found by tier 2.
2. **Import-directed** — ``mod.foo()`` where ``mod`` is an imported
   ``repro`` module resolves inside that module, and a bare ``foo``
   imported from a ``repro`` module resolves to its definition there;
   attribute calls on *external* module aliases (``np``, ``struct``,
   ``os``) resolve to nothing rather than falling through to name
   matching.
3. **Dynamic-dispatch fallback** — any other ``obj.foo()`` (including
   ``self.foo()`` when the enclosing class has no such method) resolves
   to every project function named ``foo`` *that the call's arguments
   can bind to*.  A method binds as a bound method, its receiver taking
   the first parameter; a function defined outside a class binds as a
   plain function; and when the receiver names a project class
   (``Encoder.encode(item, data)``) a method also binds as a plain
   function.  Python raises ``TypeError`` before it runs a function
   whose parameters the arguments cannot bind, so the filter removes
   no edge that can run: a zero-argument ``instruction.encode()`` never
   reaches ``HuffmanEncoder.encode(self, symbols)``.  Decorated
   candidates (their signature may be rewritten) and calls with ``*``
   or ``**`` arguments keep every candidate.  This deliberately
   over-approximates: reachability must never miss a decoder because it
   was invoked through a codec object of statically-unknown type.

The over-approximation is the soundness half of the tradeoff; the
precision cost (a shared method name like ``decompress_block`` links
every codec) is acceptable because the analyses scoped on top of the
graph only report *locally verifiable* facts (an unguarded raise, a
loop without a progress metric) — reaching too many functions can only
surface real code, never fabricate a defect site.

The graph models explicit calls only.  Code that runs implicitly —
``__post_init__``, ``with`` hooks, property reads, and ``__init__``
unless the class was imported by name — has no edge, so it is
reachable only when some explicit call names it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.verify.lint import ParsedModule


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method definition in the project."""

    qualname: str               # "core/samc/codec.py::SamcCodec.decompress"
    name: str                   # bare name: "decompress"
    relpath: str                # module path relative to the package
    display: str                # path reported in findings
    lineno: int
    node: ast.AST               # the FunctionDef / AsyncFunctionDef
    class_name: Optional[str]   # immediately enclosing class, if any


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body."""

    caller: str                 # qualname of the enclosing function
    callee_name: str            # bare name being called
    lineno: int
    node: ast.Call
    receiver: Optional[str]     # "self", a module alias, a variable, or None
    resolved: Tuple[str, ...]   # qualnames this site may dispatch to
    fallback: bool              # True when resolved via tier-3 name match


@dataclass
class _ModuleIndex:
    """Per-module name tables used during resolution."""

    toplevel: Dict[str, str] = field(default_factory=dict)
    # module-level and nested defs: what a bare name can call
    plain_defs: Dict[str, List[str]] = field(default_factory=dict)
    methods: Dict[str, Dict[str, str]] = field(default_factory=dict)
    # import alias -> repro module dotted path, or None for external
    imports: Dict[str, Optional[str]] = field(default_factory=dict)
    classes: Set[str] = field(default_factory=set)


class CallGraph:
    """Functions, call sites, and reachability over one parsed tree."""

    def __init__(
        self,
        functions: Dict[str, FunctionInfo],
        call_sites: Dict[str, Tuple[CallSite, ...]],
        by_name: Dict[str, Tuple[str, ...]],
    ) -> None:
        self.functions = functions
        self.call_sites = call_sites
        self.by_name = by_name

    def sites(self, qualname: str) -> Tuple[CallSite, ...]:
        return self.call_sites.get(qualname, ())

    def callees(self, qualname: str) -> Set[str]:
        out: Set[str] = set()
        for site in self.sites(qualname):
            out.update(site.resolved)
        return out

    def reachable(self, roots: Iterable[str]) -> Set[str]:
        """Every function reachable from ``roots`` (roots included)."""
        seen: Set[str] = set()
        frontier = [r for r in roots if r in self.functions]
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            frontier.extend(
                c for c in self.callees(current) if c not in seen
            )
        return seen


def _module_dotted(relpath: str) -> str:
    """``core/samc/codec.py`` -> ``repro.core.samc.codec``."""
    stem = relpath[:-3] if relpath.endswith(".py") else relpath
    parts = [p for p in stem.split("/") if p != "__init__"]
    return ".".join(["repro"] + parts) if parts else "repro"


def _index_module(module: ParsedModule) -> _ModuleIndex:
    index = _ModuleIndex()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.name.startswith("repro") else None
                index.imports[bound] = target
        elif isinstance(node, ast.ImportFrom):
            source = node.module or ""
            for alias in node.names:
                bound = alias.asname or alias.name
                if source.startswith("repro"):
                    # ``from repro.x import submodule`` may bind a module;
                    # record the dotted guess, resolution tolerates misses.
                    index.imports[bound] = f"{source}.{alias.name}"
                else:
                    index.imports[bound] = None
        elif isinstance(node, ast.ClassDef):
            index.classes.add(node.name)
    return index


def _binds(call: ast.Call, spec: ast.arguments, bound: bool) -> bool:
    """Whether ``call``'s arguments bind to the parameters ``spec``.

    ``bound`` passes the receiver as the first positional argument, as
    Python does for a method looked up on an instance.  The call must
    have no ``*``/``**`` arguments.
    """
    names = [a.arg for a in spec.posonlyargs + spec.args]
    given = len(call.args) + bound
    if given > len(names) and spec.vararg is None:
        return False
    filled = set(names[:given])
    by_keyword = {a.arg for a in spec.args + spec.kwonlyargs}
    for name in [k.arg for k in call.keywords if k.arg is not None]:
        if name in by_keyword:
            if name in filled:
                return False  # multiple values for one parameter
            filled.add(name)
        elif spec.kwarg is None:
            return False  # unexpected keyword argument
    required = names[: len(names) - len(spec.defaults)]
    required += [
        a.arg
        for a, default in zip(spec.kwonlyargs, spec.kw_defaults)
        if default is None
    ]
    return filled.issuperset(required)


def _may_run(call: ast.Call, info: FunctionInfo, on_class: bool) -> bool:
    """Whether a tier-3 candidate passes the binding filter (tier 3 in
    the module docstring)."""
    node = info.node
    if getattr(node, "decorator_list", None):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
        k.arg is None for k in call.keywords
    ):
        return True
    spec = node.args  # type: ignore[attr-defined]
    if info.class_name is None:
        return _binds(call, spec, bound=False)
    return _binds(call, spec, bound=True) or (
        on_class and _binds(call, spec, bound=False)
    )


def _collect_functions(
    module: ParsedModule,
) -> List[Tuple[FunctionInfo, List[Tuple[ast.Call, Optional[str], str]]]]:
    """All function defs in a module, each with its direct call nodes.

    Calls made by code nested in an inner def belong to the inner def;
    stray calls in class/module bodies belong to no function (ignored).
    Defs nested inside ``if``/``try`` blocks are still collected.
    """
    collected: List[
        Tuple[FunctionInfo, List[Tuple[ast.Call, Optional[str], str]]]
    ] = []

    def walk(
        node: ast.AST,
        scope: Tuple[str, ...],
        class_name: Optional[str],
        bucket: Optional[List[Tuple[ast.Call, Optional[str], str]]],
    ) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                dotted = ".".join(scope + (child.name,))
                info = FunctionInfo(
                    qualname=f"{module.relpath}::{dotted}",
                    name=child.name,
                    relpath=module.relpath,
                    display=module.display,
                    lineno=child.lineno,
                    node=child,
                    class_name=class_name,
                )
                calls: List[Tuple[ast.Call, Optional[str], str]] = []
                collected.append((info, calls))
                walk(child, scope + (child.name,), None, calls)
            elif isinstance(child, ast.ClassDef):
                walk(child, scope + (child.name,), child.name, bucket)
            else:
                if bucket is not None and isinstance(child, ast.Call):
                    func = child.func
                    if isinstance(func, ast.Name):
                        bucket.append((child, None, func.id))
                    elif isinstance(func, ast.Attribute):
                        receiver = (
                            func.value.id
                            if isinstance(func.value, ast.Name)
                            else "<expr>"
                        )
                        bucket.append((child, receiver, func.attr))
                walk(child, scope, class_name, bucket)

    walk(module.tree, (), None, None)
    return collected


def build_callgraph(modules: Sequence[ParsedModule]) -> CallGraph:
    """Build the project call graph from parsed modules."""
    functions: Dict[str, FunctionInfo] = {}
    by_name: Dict[str, List[str]] = {}
    by_module: Dict[str, _ModuleIndex] = {}
    dotted_to_relpath: Dict[str, str] = {}
    pending: Dict[str, List[Tuple[ast.Call, Optional[str], str]]] = {}

    for module in modules:
        dotted_to_relpath[_module_dotted(module.relpath)] = module.relpath
        index = _index_module(module)
        by_module[module.relpath] = index
        for info, calls in _collect_functions(module):
            if info.qualname in functions:
                continue  # redefinition; first definition wins
            functions[info.qualname] = info
            pending[info.qualname] = calls
            by_name.setdefault(info.name, []).append(info.qualname)
            dotted = info.qualname.split("::", 1)[1]
            if "." not in dotted:
                index.toplevel[info.name] = info.qualname
            if info.class_name is None:
                index.plain_defs.setdefault(info.name, []).append(
                    info.qualname
                )
            else:
                index.methods.setdefault(info.class_name, {})[
                    info.name
                ] = info.qualname

    frozen_by_name = {
        name: tuple(quals) for name, quals in sorted(by_name.items())
    }
    class_names: Set[str] = set()
    for index in by_module.values():
        class_names |= index.classes

    def _fallback(
        name: str, node: ast.Call
    ) -> Tuple[Tuple[str, ...], bool]:
        # Dunder names never fall back: ``super().__init__()`` would
        # otherwise link every constructor in the project into one
        # giant reachability blob.
        if name.startswith("__") and name.endswith("__"):
            return (), True
        candidates = frozen_by_name.get(name, ())
        func = node.func
        if isinstance(func, ast.Attribute):
            owner = func.value
            on_class = (
                isinstance(owner, ast.Name) and owner.id in class_names
            ) or (
                isinstance(owner, ast.Attribute) and owner.attr in class_names
            )
            candidates = tuple(
                q for q in candidates
                if _may_run(node, functions[q], on_class)
            )
        return candidates, True

    def resolve(
        caller: FunctionInfo,
        node: ast.Call,
        receiver: Optional[str],
        name: str,
    ) -> Tuple[Tuple[str, ...], bool]:
        """Resolve one call; the bool marks a tier-3 name-match fallback."""
        index = by_module[caller.relpath]
        if receiver is None:
            # Bare-name call: same module first, else global name match.
            if name in index.toplevel:
                return (index.toplevel[name],), False
            if name in index.plain_defs:
                return tuple(index.plain_defs[name]), False
            if name in index.imports:
                target = index.imports[name]
                if target is None:
                    return (), False  # external symbol
                # ``from repro.m import f`` — find f in module m.
                mod_dotted, _, symbol = target.rpartition(".")
                relpath = dotted_to_relpath.get(mod_dotted)
                if relpath is not None:
                    sub = by_module.get(relpath)
                    if sub is not None and symbol in sub.toplevel:
                        return (sub.toplevel[symbol],), False
                    # imported a class: constructor calls resolve to its
                    # __init__ when defined.
                    if sub is not None:
                        ctor = sub.methods.get(symbol, {}).get("__init__")
                        if ctor is not None:
                            return (ctor,), False
                return _fallback(name, node)
            return _fallback(name, node)
        if receiver == "self" and caller.class_name is not None:
            own = index.methods.get(caller.class_name, {})
            if name in own:
                return (own[name],), False
        if receiver in index.imports:
            target = index.imports[receiver]
            if target is None:
                return (), False  # call on an external module alias
            relpath = dotted_to_relpath.get(target)
            if relpath is not None:
                sub = by_module.get(relpath)
                if sub is not None and name in sub.toplevel:
                    return (sub.toplevel[name],), False
        # Dynamic dispatch: any project function of this name that the
        # call's arguments bind to.
        return _fallback(name, node)

    call_sites: Dict[str, Tuple[CallSite, ...]] = {}
    for qualname, calls in pending.items():
        caller = functions[qualname]
        sites: List[CallSite] = []
        for node, receiver, name in calls:
            resolved, fallback = resolve(caller, node, receiver, name)
            sites.append(CallSite(
                caller=qualname,
                callee_name=name,
                lineno=node.lineno,
                node=node,
                receiver=receiver,
                resolved=resolved,
                fallback=fallback,
            ))
        call_sites[qualname] = tuple(sites)

    return CallGraph(functions, call_sites, frozen_by_name)


__all__ = [
    "CallGraph",
    "CallSite",
    "FunctionInfo",
    "build_callgraph",
]
