"""Whole-program layer: symbol table, call graph, and function summaries.

The per-file rules (PR 6) deliberately stop at file boundaries; the
failures that cost whole bench runs do not.  This module builds the
project model the ``ipd``/``rpc`` rule families consume:

* **Extraction** (:func:`extract_model`) — one pure-data summary per
  file: every function's direct facts (blocking calls, det-taint sites,
  materialize sites, view returns, lock acquisition), its outgoing call
  references, the class table (bases, ``serializes_stripes`` literals,
  methods), and the RPC protocol surface (kinds registered vs sent).
  The model is plain JSON — that is what the incremental cache stores.

* **Resolution** (:class:`Project`) — call references are resolved
  against the project symbol table: canonical dotted names through each
  file's import-alias map, bare names within their module (enclosing
  function first), ``self.``/``super().`` methods over the known class
  hierarchy, and unknown-receiver method calls by a conservative join
  over every class defining that method name.  This is a *may* analysis:
  over-approximating the callee set keeps the derived facts sound.

* **Fixpoint** (:func:`solve`) — transitive facts (may-block, det
  taint, returns-view) are computed bottom-up over Tarjan SCCs of the
  call graph; within an SCC the transfer is iterated to a fixpoint.
  Everything is visited in sorted order, so the solved summaries — and
  every report derived from them — are byte-deterministic.

The module is engine-free: it imports nothing from the simulator or
numpy, and never executes analyzed code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import ast

from repro.analysis.core import FileContext, LintConfig, Suppression
from repro.analysis.vocab import (
    BLOCKING_CALL_TAILS,
    MATERIALIZE_ATTR_TAILS,
    MATERIALIZE_CALLS,
    PLANE_DISPATCH_TAILS,
    WALLCLOCK_CALLS,
    is_entropy_call,
    view_call as _view_call,
)

# Schema version: bump on any change to the model dict layout so stale
# cache entries are discarded wholesale instead of misread.
MODEL_VERSION = 1

# ----------------------------------------------------------------------
# fact bits
# ----------------------------------------------------------------------
YIELDS = 1 << 0          # function body contains a yield (generator)
BLOCKING = 1 << 1        # direct blocking yield point (rpc/sleep/...)
MAY_BLOCK = 1 << 2       # BLOCKING, transitively through callees
RETURNS_VIEW = 1 << 3    # returns a zero-copy view (direct or via callee)
MATERIALIZES = 1 << 4    # direct byte-materializing call site
GHOST_DISPATCH = 1 << 5  # branches on the payload plane (is_ghost / type)
WALLCLOCK = 1 << 6       # direct unsuppressed wall-clock read
ENTROPY = 1 << 7         # direct unsuppressed ambient-entropy draw
TAINTED = 1 << 8         # WALLCLOCK|ENTROPY, transitively through callees
ACQUIRES_LOCK = 1 << 9   # calls serialize_stripe

FACT_NAMES = (
    (YIELDS, "yields"),
    (BLOCKING, "blocking"),
    (MAY_BLOCK, "may-block"),
    (RETURNS_VIEW, "returns-view"),
    (MATERIALIZES, "materializes"),
    (GHOST_DISPATCH, "ghost-dispatch"),
    (WALLCLOCK, "wallclock"),
    (ENTROPY, "entropy"),
    (TAINTED, "det-tainted"),
    (ACQUIRES_LOCK, "acquires-lock"),
)


def fact_names(facts: int) -> List[str]:
    return [name for bit, name in FACT_NAMES if facts & bit]


# ----------------------------------------------------------------------
# extraction: file AST -> plain-data model
# ----------------------------------------------------------------------
def module_name(posix_path: str) -> str:
    """Dotted module name for a file path, matching how it is imported.

    Files under a ``src`` segment get the path after the last ``src``
    (``src/repro/fs/osd.py`` -> ``repro.fs.osd``); elsewhere the longest
    all-identifier path suffix is kept, so fixture trees in temp
    directories still resolve their own intra-package imports.
    """
    parts = posix_path[:-3].split("/") if posix_path.endswith(".py") \
        else posix_path.split("/")
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    if "src" in parts:
        last = len(parts) - 1 - parts[::-1].index("src")
        parts = parts[last + 1:]
    else:
        keep: List[str] = []
        for part in reversed(parts):
            if part.isidentifier():
                keep.append(part)
            else:
                break
        parts = list(reversed(keep))
    return ".".join(parts) or "_"


def _classify_ref(ctx: FileContext, call: ast.Call) -> Optional[str]:
    """Encode who a call refers to, as resolvable-later plain data.

    ``d:<canonical>`` — dotted name with import aliases resolved;
    ``n:<name>`` — bare local/module-level name;
    ``m:self.<attr>`` / ``m:super.<attr>`` / ``m:?.<attr>`` — method
    call with known / parent / unknown receiver.
    """
    func = call.func
    if isinstance(func, ast.Name):
        if func.id in ctx.module_aliases:
            return f"d:{ctx.canonical_call(call)}"
        return f"n:{func.id}"
    if isinstance(func, ast.Attribute):
        dotted = ctx.dotted(func)
        if dotted is not None:
            head = dotted.split(".", 1)[0]
            if head in ctx.module_aliases:
                return f"d:{ctx.canonical_call(call)}"
            if head == "self":
                comps = dotted.split(".")
                if len(comps) == 2:
                    return f"m:self.{comps[1]}"
                return f"m:?.{func.attr}"
            return f"m:?.{func.attr}"
        inner = func.value
        if (isinstance(inner, ast.Call) and isinstance(inner.func, ast.Name)
                and inner.func.id == "super"):
            return f"m:super.{func.attr}"
        return f"m:?.{func.attr}"
    return None


def _unwrap(node: ast.AST) -> ast.AST:
    return node.value if isinstance(node, (ast.YieldFrom, ast.Await)) \
        else node


class _FunctionExtractor:
    """Facts + call references for one function body (own nodes only)."""

    def __init__(self, ctx: FileContext, func: ast.FunctionDef,
                 det_allowed: Dict[int, Set[str]]):
        self.ctx = ctx
        self.func = func
        self.det_allowed = det_allowed
        self.facts = 0
        self.calls: List[list] = []    # [ref, line, col, in_lock, nb]
        self.rets: List[str] = []      # refs whose value is returned
        self.mat: List[list] = []      # [display, line, col]
        self.det: List[list] = []      # [display, line, col, kind]
        self.block: List[list] = []    # [tail, line, col]
        self._names: Dict[str, tuple] = {}   # name -> ("v", src)|("r", ref)
        self._locked_ids: Set[int] = set()
        self._locked_all = func.name.endswith("_locked")

    # -- helpers -------------------------------------------------------
    def _suppressed(self, line: int, rule: str) -> bool:
        return rule in self.det_allowed.get(line, ())

    def _display(self, call: ast.Call) -> str:
        return (self.ctx.dotted(call.func)
                or getattr(call.func, "attr", None)
                or type(call.func).__name__)

    def _record_call(self, call: ast.Call) -> None:
        dotted = self.ctx.dotted(call.func)
        tail = dotted.rsplit(".", 1)[-1] if dotted else (
            call.func.attr if isinstance(call.func, ast.Attribute) else "")
        canon = self.ctx.canonical_call(call)
        line, col = call.lineno, call.col_offset + 1
        if tail == "serialize_stripe":
            self.facts |= ACQUIRES_LOCK
        if (tail in BLOCKING_CALL_TAILS
                and not self._suppressed(line, "lock-yield-while-locked")):
            # Compositional suppression: a blocking site accepted with a
            # reasoned allow() (PARIX original-ship) must not also flag
            # every transitive caller through the summary.
            self.facts |= BLOCKING
            self.block.append([tail, line, col])
        if canon is not None:
            if (canon in WALLCLOCK_CALLS
                    and not self._suppressed(line, "det-wallclock")):
                self.facts |= WALLCLOCK
                self.det.append([canon, line, col, "wallclock"])
            elif (is_entropy_call(canon, bool(call.args or call.keywords))
                    and not self._suppressed(line, "det-entropy")):
                self.facts |= ENTROPY
                self.det.append([canon, line, col, "entropy"])
        if (canon in MATERIALIZE_CALLS
                or tail in MATERIALIZE_ATTR_TAILS):
            self.facts |= MATERIALIZES
            self.mat.append([self._display(call), line, col])
        if tail in PLANE_DISPATCH_TAILS:
            self.facts |= GHOST_DISPATCH
        ref = _classify_ref(self.ctx, call)
        if ref is not None:
            in_lock = 1 if (self._locked_all
                            or id(call) in self._locked_ids) else 0
            # A call edge on a `lock-yield-while-locked`-suppressed line
            # is part of the audited exception: the callee's MAY_BLOCK
            # must not re-enter through it (the lexical fact above is
            # already stripped; the edge has to be too, or the summary
            # re-flags every transitive caller the suppression excused).
            nb = 1 if self._suppressed(line, "lock-yield-while-locked") else 0
            self.calls.append([ref, line, col, in_lock, nb])

    def _ret_value(self, value: ast.AST) -> None:
        value = _unwrap(value)
        if isinstance(value, ast.Tuple):
            for elt in value.elts:
                self._ret_value(elt)
            return
        if isinstance(value, ast.Call):
            if _view_call(value) is not None:
                self.facts |= RETURNS_VIEW
                return
            ref = _classify_ref(self.ctx, value)
            if ref is not None:
                self.rets.append(ref)
            return
        if isinstance(value, ast.Name):
            bound = self._names.get(value.id)
            if bound is None:
                return
            if bound[0] == "v":
                self.facts |= RETURNS_VIEW
            else:
                self.rets.append(bound[1])

    def _assign(self, targets: Sequence[ast.AST], value: ast.AST) -> None:
        value = _unwrap(value)
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            if isinstance(value, ast.Call):
                if _view_call(value) is not None:
                    self._names[target.id] = ("v", self._display(value))
                    continue
                ref = _classify_ref(self.ctx, value)
                if ref is not None:
                    self._names[target.id] = ("r", ref)
                    continue
            self._names.pop(target.id, None)

    # -- traversal -----------------------------------------------------
    def run(self) -> dict:
        # Two passes: serialize_stripe argument subtrees must be known
        # before any call inside them is flagged in-lock, and textual
        # order of the walk must not matter for that flag.
        for node in self._own_nodes():
            if (isinstance(node, ast.Call) and isinstance(
                    node.func, (ast.Name, ast.Attribute))):
                dotted = self.ctx.dotted(node.func)
                tail = dotted.rsplit(".", 1)[-1] if dotted else ""
                if tail == "serialize_stripe":
                    for arg in list(node.args) + [
                        kw.value for kw in node.keywords
                    ]:
                        self._locked_ids.update(
                            id(n) for n in ast.walk(arg))
        for stmt in self.func.body:
            self._visit(stmt)
        entry = {
            "line": self.func.lineno,
            "facts": self.facts,
            "calls": self.calls,
        }
        # Optional keys are omitted when empty: smaller cache files and a
        # stable serialization for hashing.
        if self.rets:
            entry["rets"] = sorted(set(self.rets))
        if self.mat:
            entry["mat"] = self.mat
        if self.det:
            entry["det"] = self.det
        if self.block:
            entry["block"] = self.block
        return entry

    def _own_nodes(self) -> Iterator[ast.AST]:
        stack: List[ast.AST] = list(self.func.body)
        while stack:
            node = stack.pop()
            yield node
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.Lambda)):
                    continue
                stack.append(child)

    def _visit(self, node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            return
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            self.facts |= YIELDS
        if isinstance(node, ast.Name) and node.id == "GhostExtent":
            # Referencing the ghost type (construction, `type(x) is
            # GhostExtent`) means the function is plane-aware by
            # construction — a dispatch point for reachability.
            self.facts |= GHOST_DISPATCH
        if isinstance(node, ast.Call):
            self._record_call(node)
        if isinstance(node, ast.Assign):
            for child in ast.iter_child_nodes(node):
                self._visit(child)
            self._assign(node.targets, node.value)
            return
        if isinstance(node, ast.Return) and node.value is not None:
            for child in ast.iter_child_nodes(node):
                self._visit(child)
            self._ret_value(node.value)
            return
        for child in ast.iter_child_nodes(node):
            self._visit(child)


# Rules whose per-site suppressions also strip the fact from the
# summary, so one audited exception does not flag N transitive callers.
_COMPOSITIONAL = ("det-wallclock", "det-entropy", "lock-yield-while-locked")


def _det_allow_map(
    suppressions: Sequence[Suppression],
) -> Dict[int, Set[str]]:
    """target line -> compositionally-suppressed rules at that line.

    A site suppressed for ``det-wallclock``/``det-entropy``/
    ``lock-yield-while-locked`` is an *audited exception* — it must not
    also poison every transitive caller's summary, or one suppression
    would need N more at every level of the call chain.
    """
    out: Dict[int, Set[str]] = {}
    for sup in suppressions:
        for rule in sup.rules:
            if rule in _COMPOSITIONAL:
                out.setdefault(sup.target_line, set()).add(rule)
    return out


def extract_model(ctx: FileContext,
                  suppressions: Sequence[Suppression]) -> dict:
    """The cacheable whole-program summary of one parsed file."""
    det_allowed = _det_allow_map(suppressions)
    functions: Dict[str, dict] = {}
    classes: Dict[str, dict] = {}
    reg: List[list] = []
    sent: List[list] = []
    dyn: List[list] = []

    def walk_body(body: Sequence[ast.stmt], prefix: str,
                  cls: Optional[str]) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{stmt.name}"
                entry = _FunctionExtractor(ctx, stmt, det_allowed).run()
                if cls is not None:
                    entry["cls"] = cls
                functions[qual] = entry
                walk_body(stmt.body, f"{qual}.", cls=None)
            elif isinstance(stmt, ast.ClassDef) and not prefix:
                bases = []
                for base in stmt.bases:
                    dotted = ctx.dotted(base)
                    if dotted is None:
                        continue
                    head, _, rest = dotted.partition(".")
                    origin = ctx.module_aliases.get(head)
                    if origin is not None:
                        dotted = f"{origin}.{rest}" if rest else origin
                    bases.append(dotted)
                serializes = None
                methods = []
                for sub in stmt.body:
                    if (isinstance(sub, ast.Assign)
                            and any(isinstance(t, ast.Name)
                                    and t.id == "serializes_stripes"
                                    for t in sub.targets)
                            and isinstance(sub.value, ast.Constant)
                            and isinstance(sub.value.value, bool)):
                        serializes = sub.value.value
                    elif isinstance(sub, (ast.FunctionDef,
                                          ast.AsyncFunctionDef)):
                        methods.append(sub.name)
                classes[stmt.name] = {"bases": bases, "methods": methods}
                if serializes is not None:
                    classes[stmt.name]["serializes"] = serializes
                walk_body(stmt.body, f"{stmt.name}.", cls=stmt.name)

    walk_body(ctx.tree.body, "", None)

    # RPC protocol surface: kinds registered vs kinds sent.  The kind
    # argument is positional arg 0 for register(kind, handler) and arg 1
    # for rpc/rpc_with_retry(dst, kind, ...); a non-constant kind
    # (outside the transport layer) is a dynamic send.
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        tail = None
        if isinstance(node.func, ast.Attribute):
            tail = node.func.attr
        elif isinstance(node.func, ast.Name):
            tail = node.func.id
        if tail == "register" and node.args:
            kind = node.args[0]
            if isinstance(kind, ast.Constant) and isinstance(kind.value, str):
                reg.append([kind.value, node.lineno, node.col_offset + 1])
        elif tail in ("rpc", "rpc_with_retry"):
            kind = None
            if len(node.args) >= 2:
                kind = node.args[1]
            else:
                for kw in node.keywords:
                    if kw.arg == "kind":
                        kind = kw.value
            if kind is None:
                continue  # not a protocol op
            if isinstance(kind, ast.Constant) and isinstance(kind.value, str):
                sent.append([kind.value, node.lineno, node.col_offset + 1])
            else:
                dyn.append([node.lineno, node.col_offset + 1])

    model = {
        "version": MODEL_VERSION,
        "module": module_name(ctx.posix_path),
        "functions": functions,
        "classes": classes,
    }
    if reg or sent or dyn:
        model["rpc"] = {"reg": reg, "sent": sent, "dyn": dyn}
    return model


# ----------------------------------------------------------------------
# project assembly + resolution
# ----------------------------------------------------------------------
@dataclass
class FunctionInfo:
    key: str                 # "<module>:<qualpath>"
    path: str
    module: str
    qual: str
    line: int
    facts: int
    calls: List[list]
    rets: List[str]
    mat: List[list]
    det: List[list]
    block: List[list]
    cls: Optional[str]
    transparent: bool        # lock-transparent module
    callees: List[str] = field(default_factory=list)       # resolved, sorted
    ret_callees: List[str] = field(default_factory=list)
    block_callees: List[str] = field(default_factory=list)  # minus nb edges


class Project:
    """The resolved whole-program model the ipd/rpc rules check."""

    def __init__(self, models: Dict[str, dict], config: LintConfig):
        self.config = config
        self.models = models
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, dict] = {}          # "<module>:<Class>"
        self._mod_of: Dict[str, str] = {}           # module -> rep. path
        self._mod_index: Dict[str, Optional[str]] = {}
        self._methods_by_name: Dict[str, List[str]] = {}
        self._build()

    # -- construction --------------------------------------------------
    def _build(self) -> None:
        for path in sorted(self.models):
            model = self.models[path]
            mod = model["module"]
            if mod not in self._mod_of:
                self._mod_of[mod] = path
            self._index_module(mod)
            posix = path.replace("\\", "/")
            transparent = any(part in posix for part in
                              self.config.lock_transparent_parts)
            for cname in sorted(model.get("classes", ())):
                self.classes[f"{mod}:{cname}"] = model["classes"][cname]
            for qual in sorted(model.get("functions", ())):
                entry = model["functions"][qual]
                key = f"{mod}:{qual}"
                self.functions[key] = FunctionInfo(
                    key=key, path=path, module=mod, qual=qual,
                    line=entry["line"], facts=entry["facts"],
                    calls=entry.get("calls", []),
                    rets=entry.get("rets", []),
                    mat=entry.get("mat", []),
                    det=entry.get("det", []),
                    block=entry.get("block", []),
                    cls=entry.get("cls"),
                    transparent=transparent,
                )
        for key, info in self.functions.items():
            if info.cls is not None:
                self._methods_by_name.setdefault(
                    info.qual.rsplit(".", 1)[-1], []).append(key)
        for lst in self._methods_by_name.values():
            lst.sort()
        for info in self.functions.values():
            callees: Set[str] = set()
            block: Set[str] = set()
            for ref, _line, _col, _lock, nb in info.calls:
                targets = self.resolve_ref(info, ref)
                callees.update(targets)
                if not nb:
                    block.update(targets)
            info.callees = sorted(callees)
            info.block_callees = sorted(block)
            rets: Set[str] = set()
            for ref in info.rets:
                rets.update(self.resolve_ref(info, ref))
            info.ret_callees = sorted(rets)

    def _index_module(self, mod: str) -> None:
        """Register every component-suffix of ``mod`` for lookup.

        ``repro.fs.osd`` answers to ``repro.fs.osd``, ``fs.osd`` and
        ``osd``; a suffix claimed by two different modules becomes
        ambiguous and resolves to nothing (conservative for *naming*,
        which only ever narrows the callee join).
        """
        parts = mod.split(".")
        for i in range(len(parts)):
            suffix = ".".join(parts[i:])
            if suffix not in self._mod_index:
                self._mod_index[suffix] = mod
            elif self._mod_index[suffix] != mod:
                self._mod_index[suffix] = None

    # -- symbol resolution ---------------------------------------------
    def _lookup_module(self, name: str) -> Optional[str]:
        return self._mod_index.get(name)

    def _class_key(self, dotted: str, home: str) -> Optional[str]:
        """Resolve a (possibly dotted) class name to a project class key."""
        if "." not in dotted:
            key = f"{home}:{dotted}"
            return key if key in self.classes else None
        modpart, _, cname = dotted.rpartition(".")
        mod = self._lookup_module(modpart)
        if mod is not None and f"{mod}:{cname}" in self.classes:
            return f"{mod}:{cname}"
        return None

    def _mro(self, class_key: str) -> List[str]:
        """Depth-first base-class chain (self first); cycle-safe."""
        out: List[str] = []
        seen: Set[str] = set()
        stack = [class_key]
        while stack:
            key = stack.pop(0)
            if key in seen or key not in self.classes:
                continue
            seen.add(key)
            out.append(key)
            home = key.split(":", 1)[0]
            bases = [self._class_key(b, home)
                     for b in self.classes[key].get("bases", ())]
            stack = [b for b in bases if b is not None] + stack
        return out

    def resolve_method(self, class_key: str, name: str,
                       skip_own: bool = False) -> Optional[str]:
        for key in self._mro(class_key)[1 if skip_own else 0:]:
            if name in self.classes[key].get("methods", ()):  # defined here
                fkey = f"{key}.{name}"
                if fkey in self.functions:
                    return fkey
        return None

    def serializes(self, class_key: str) -> bool:
        """Nearest ``serializes_stripes`` literal in the base chain."""
        for key in self._mro(class_key):
            val = self.classes[key].get("serializes")
            if val is not None:
                return val
        return False

    def resolve_ref(self, info: FunctionInfo, ref: str) -> List[str]:
        """Project function keys a call reference may reach (sorted)."""
        kind, _, name = ref.partition(":")
        if kind == "d":
            parts = name.split(".")
            if len(parts) >= 2:
                mod = self._lookup_module(".".join(parts[:-1]))
                if mod is not None:
                    key = f"{mod}:{parts[-1]}"
                    if key in self.functions:
                        return [key]
            if len(parts) >= 3:
                mod = self._lookup_module(".".join(parts[:-2]))
                if mod is not None:
                    ckey = f"{mod}:{parts[-2]}"
                    if ckey in self.classes:
                        found = self.resolve_method(ckey, parts[-1])
                        return [found] if found else []
            return []
        if kind == "n":
            # Enclosing-function nesting first, then module level.
            qual_parts = info.qual.split(".")
            for depth in range(len(qual_parts), 0, -1):
                key = f"{info.module}:{'.'.join(qual_parts[:depth])}.{name}"
                if key in self.functions:
                    return [key]
            key = f"{info.module}:{name}"
            return [key] if key in self.functions else []
        # method calls
        recv, _, mname = name.partition(".")
        if recv in ("self", "super") and info.cls is not None:
            found = self.resolve_method(f"{info.module}:{info.cls}", mname,
                                        skip_own=(recv == "super"))
            return [found] if found else []
        if recv in ("self", "super"):
            return []
        # Unknown receiver: resolve only when exactly one project class
        # defines a method of this name.  A full join over all definers
        # is the textbook conservative answer, but generic names
        # (``read``, ``write``) are defined by clients, stores and device
        # models alike, and joining them manufactures call chains that do
        # not exist — for a lint, a dropped ambiguous edge is a missed
        # finding, a fabricated edge is a false positive in CI.
        definers = self._methods_by_name.get(mname, ())
        return list(definers) if len(definers) == 1 else []

    # -- derived queries ----------------------------------------------
    def witness_path(self, start: str, bit: int,
                     avoid_transparent: bool = False,
                     block_edges: bool = False) -> List[str]:
        """Shortest sorted-order call path from ``start`` to a function
        carrying ``bit`` directly (inclusive); [] when unreachable.

        With ``block_edges`` the walk follows only edges that propagate
        MAY_BLOCK (suppressed call sites excluded), so a blocking witness
        never runs through an audited exception.
        """
        seen = {start}
        queue: List[Tuple[str, Tuple[str, ...]]] = [(start, (start,))]
        while queue:
            key, path = queue.pop(0)
            info = self.functions[key]
            if info.facts & bit:
                return list(path)
            edges = info.block_callees if block_edges else info.callees
            for callee in edges:
                nxt = self.functions.get(callee)
                if nxt is None or callee in seen:
                    continue
                if avoid_transparent and nxt.transparent:
                    continue
                seen.add(callee)
                queue.append((callee, path + (callee,)))
        return []


# ----------------------------------------------------------------------
# fixpoint: transitive facts over Tarjan SCCs
# ----------------------------------------------------------------------
def _tarjan_sccs(keys: List[str],
                 succs: Dict[str, List[str]]) -> List[List[str]]:
    """SCCs in reverse topological order (callees before callers).

    Iterative Tarjan over a deterministic (sorted) node and edge order:
    the emission order — and therefore everything the fixpoint derives —
    is identical on every run.
    """
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    sccs: List[List[str]] = []
    counter = [0]

    for root in keys:
        if root in index:
            continue
        work: List[Tuple[str, int]] = [(root, 0)]
        while work:
            node, i = work.pop()
            if i == 0:
                index[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            recurse = False
            children = succs.get(node, ())
            for j in range(i, len(children)):
                child = children[j]
                if child not in index:
                    work.append((node, j + 1))
                    work.append((child, 0))
                    recurse = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if recurse:
                continue
            if low[node] == index[node]:
                scc = []
                while True:
                    top = stack.pop()
                    on_stack.discard(top)
                    scc.append(top)
                    if top == node:
                        break
                sccs.append(sorted(scc))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return sccs


def solve(project: Project) -> None:
    """Propagate MAY_BLOCK / TAINTED / RETURNS_VIEW bottom-up in place."""
    funcs = project.functions
    keys = sorted(funcs)
    succs = {k: [c for c in funcs[k].callees if c in funcs] for k in keys}
    block_succs = {k: [c for c in funcs[k].block_callees if c in funcs]
                   for k in keys}
    ret_succs = {k: [c for c in funcs[k].ret_callees if c in funcs]
                 for k in keys}
    for k in keys:
        info = funcs[k]
        if info.facts & BLOCKING and not info.transparent:
            info.facts |= MAY_BLOCK
        if info.facts & (WALLCLOCK | ENTROPY):
            info.facts |= TAINTED

    def transfer(key: str) -> bool:
        info = funcs[key]
        before = info.facts
        for callee in block_succs[key]:
            if funcs[callee].facts & MAY_BLOCK and not info.transparent:
                info.facts |= MAY_BLOCK
        for callee in succs[key]:
            if funcs[callee].facts & TAINTED:
                info.facts |= TAINTED
        for callee in ret_succs[key]:
            if funcs[callee].facts & RETURNS_VIEW:
                info.facts |= RETURNS_VIEW
        return info.facts != before

    # Edges for SCC structure: call edges + return-value edges.
    all_succs = {k: sorted(set(succs[k]) | set(ret_succs[k])) for k in keys}
    for scc in _tarjan_sccs(keys, all_succs):
        changed = True
        while changed:
            changed = False
            for key in scc:
                if transfer(key):
                    changed = True


def build_project(models: Dict[str, dict], config: LintConfig) -> Project:
    """Assemble + solve: the one entry point the driver calls."""
    project = Project(models, config)
    solve(project)
    return project


# ----------------------------------------------------------------------
# graph dump (debugging artifact; uploaded by CI on lint failure)
# ----------------------------------------------------------------------
def graph_dump(project: Project) -> dict:
    functions = {}
    for key in sorted(project.functions):
        info = project.functions[key]
        functions[key] = {
            "path": info.path,
            "line": info.line,
            "facts": fact_names(info.facts),
            "callees": info.callees,
        }
        if info.ret_callees:
            functions[key]["returns-from"] = info.ret_callees
    classes = {}
    for key in sorted(project.classes):
        cls = dict(project.classes[key])
        cls["serializes-resolved"] = project.serializes(key)
        classes[key] = cls
    return {"version": MODEL_VERSION, "functions": functions,
            "classes": classes}
