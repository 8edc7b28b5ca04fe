"""RPC protocol rules: message kinds sent vs handlers registered.

The transport (``fs/messages.py``) drops a message whose kind has no
registered handler into a reply-timeout — a hang that surfaces as a
scenario deadlock long after the typo that caused it.  The inverse —
a handler registered for a kind nothing ever sends — is dead protocol
surface that rots silently.  Both are whole-program properties: senders
and handlers live in different modules by design (client/MDS/OSD/
strategies), so no per-file rule can check them.

Kinds are collected from constant-string arguments to ``register(kind,
handler)`` and ``rpc/rpc_with_retry(dst, kind, ...)``.  A variable
kind outside the transport layer (which forwards caller-supplied kinds
by design) is a *dynamic send*: it may exercise any handler, so the
dead-handler rule disarms project-wide rather than guess.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set, Tuple

from repro.analysis.core import Finding, ProjectRule
from repro.analysis.graph import Project


def _protocol(project: Project) -> Tuple[
    Dict[str, List[Tuple[str, int, int]]],
    Dict[str, List[Tuple[str, int, int]]],
    List[Tuple[str, int, int]],
]:
    """(registered, sent, dynamic-sends) over every analyzed file."""
    reg: Dict[str, List[Tuple[str, int, int]]] = {}
    sent: Dict[str, List[Tuple[str, int, int]]] = {}
    dyn: List[Tuple[str, int, int]] = []
    for path in sorted(project.models):
        rpc = project.models[path].get("rpc")
        if not rpc:
            continue
        posix = path.replace("\\", "/")
        transport = any(part in posix for part in
                        project.config.rpc_transport_parts)
        for kind, line, col in rpc.get("reg", ()):
            reg.setdefault(kind, []).append((path, line, col))
        for kind, line, col in rpc.get("sent", ()):
            if not transport:
                sent.setdefault(kind, []).append((path, line, col))
        if not transport:
            for line, col in rpc.get("dyn", ()):
                dyn.append((path, line, col))
    return reg, sent, dyn


class UnhandledMessageRule(ProjectRule):
    id = "rpc-unhandled-message"
    family = "rpc"
    description = ("a message kind is sent but no host ever registers a "
                   "handler for it — the send times out as a scenario "
                   "deadlock at runtime")
    fixit = ("register a handler for the kind (or fix the kind-string "
             "typo at the send site)")

    def check(self, project: Project) -> Iterator[Finding]:
        reg, sent, _dyn = _protocol(project)
        for kind in sorted(sent):
            if kind in reg:
                continue
            for path, line, col in sent[kind]:
                yield self.finding(
                    path, line, col,
                    f"message kind `{kind}` is sent here but never "
                    "registered by any handler",
                )


class DeadHandlerRule(ProjectRule):
    id = "rpc-dead-handler"
    family = "rpc"
    description = ("a handler is registered for a message kind nothing "
                   "ever sends — dead protocol surface")
    fixit = ("delete the registration (or the handler's sender was "
             "renamed: fix the kind string); if kinds are sent "
             "dynamically on purpose, that module belongs in "
             "rpc_transport_parts")

    def check(self, project: Project) -> Iterator[Finding]:
        reg, sent, dyn = _protocol(project)
        if dyn:
            # A dynamic send may exercise any handler; guessing which
            # would make this rule's output depend on unknowable data
            # flow.  Disarm rather than emit unfalsifiable findings.
            return
        sent_kinds: Set[str] = set(sent)
        for kind in sorted(reg):
            if kind in sent_kinds:
                continue
            for path, line, col in reg[kind]:
                yield self.finding(
                    path, line, col,
                    f"handler registered for kind `{kind}` but nothing "
                    "in the project sends it",
                )
