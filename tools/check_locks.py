#!/usr/bin/env python
"""CI guard: nothing slow ever runs under the session or runtime lock.

:class:`repro.session.core.SessionCore` promises in its module
docstring that settling (``compute_routes`` / ``recompute_routes`` /
``kernels.settle_many``), deriving a topology
snapshot (``graph.snapshot()``) and the pool's fan-out
(``pool.fan_out``: publication, job submission, waiting on workers)
always run with its one Condition lock *released* — under the lock the core only
classifies lookups, moves OrderedDict entries and bumps counters.  The
serving plane's event loop leans on that: a warm ``peek`` is a dict
read, so thousands of lookups per second share the lock without
convoying, and a settling thread can never hold every reader hostage.

:class:`repro.miro.runtime.MiroRuntime` is under the same guard:
``establish`` runs on the serving event loop, so a thread that settled a
table (``session.compute`` / ``compute_many``) while holding the
runtime's lock would stall every connection behind one negotiation.

A refactor that drags a settle call inside a ``with self._lock:`` block
would pass every functional test (the answers stay right, only the
concurrency collapses), so this guard makes it a CI failure instead: it
walks the AST of the guarded files and flags any call whose terminal
name is on the slow list lexically inside a ``with self._lock`` (or
``with core._lock``) block, or anywhere in a file that only ever runs
under the session's lock (the cache module).

Run from the repo root: ``PYTHONPATH=src python tools/check_locks.py``.
Exits 0 when no guarded file settles under the lock, 1 otherwise
(listing ``file:line: call`` for each violation).
"""

from __future__ import annotations

import ast
import pathlib
import sys
from typing import List, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Files whose ``with self._lock:`` blocks are under the guard.
GUARDED_FILES = (
    "src/repro/session/core.py",
    "src/repro/miro/runtime.py",
)

#: Files that take no lock and are only ever called under the session's
#: (``RouteTableCache``, which ``mutate()`` and every lookup drive from
#: inside ``with self._lock:``): every call in them counts as under it.
HELD_FILES = (
    "src/repro/session/cache.py",
)

#: Terminal callee names that must never run under a guarded lock: the
#: settling entry points (a session's ``compute`` / ``compute_many``
#: included), the batch helpers that wrap them, the
#: O(n) expansion of a route tree into every route (``RouteTree.expand``,
#: which ``RoutingTable.items`` returns; ``mutate()`` runs caller code
#: under the lock), the affected-set walk (O(n) over a
#: tree a failure cuts; ``mutate()``'s re-stamp probes with
#: ``cut_tree_edges`` instead), the O(links) derivation of a topology
#: snapshot (every warm ``peek`` would wait behind it), the §3.3
#: negotiation ``exchange`` (its ``candidates()`` reads build a route
#: per neighbour), and the pool's calls: ``fan_out``, the one a session
#: makes, which publishes, submits and waits on workers, and the
#: publication / submission calls inside it.
SLOW_CALLS = frozenset({
    "compute",
    "compute_many",
    "compute_routes",
    "compute_routes_reference",
    "recompute_routes",
    "affected_ases",
    "exchange",
    "settle_many",
    "expand",
    "snapshot",
    "submit",
    "ensure",
    "_fill",
    "_fill_batch",
    "fan_out",
})


def _terminal_name(func: ast.expr) -> str:
    """The rightmost name of a callee: ``kernels.settle_many`` -> ``settle_many``."""
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _is_lock_expr(node: ast.expr) -> bool:
    """True for ``<anything>._lock`` — ``self._lock``, ``core._lock``."""
    return isinstance(node, ast.Attribute) and node.attr == "_lock"


def _guards_lock(with_node: ast.With) -> bool:
    return any(_is_lock_expr(item.context_expr) for item in with_node.items)


class _LockWalker(ast.NodeVisitor):
    """Collects slow calls lexically inside a lock-guarded ``with``.

    Nested function definitions are still flagged: a closure defined
    under the lock is almost always *called* under it too, and the rare
    legitimate exception should restructure rather than silence the
    guard.
    """

    def __init__(self, path: str, held: bool = False) -> None:
        self.path = path
        self.depth = 1 if held else 0
        self.violations: List[Tuple[str, int, str]] = []

    def visit_With(self, node: ast.With) -> None:
        guarded = _guards_lock(node)
        if guarded:
            self.depth += 1
        self.generic_visit(node)
        if guarded:
            self.depth -= 1

    def visit_Call(self, node: ast.Call) -> None:
        if self.depth > 0:
            name = _terminal_name(node.func)
            if name in SLOW_CALLS:
                self.violations.append((self.path, node.lineno, name))
        self.generic_visit(node)


def find_lock_violations(
    paths=GUARDED_FILES, held=HELD_FILES
) -> List[Tuple[str, int, str]]:
    """Return ``[(path, line, call)]`` for slow calls under the lock."""
    violations: List[Tuple[str, int, str]] = []
    for rel in (*paths, *held):
        path = REPO_ROOT / rel
        tree = ast.parse(path.read_text(), filename=str(path))
        walker = _LockWalker(rel, held=rel in held)
        walker.visit(tree)
        violations.extend(walker.violations)
    return sorted(violations)


def check_source(
    source: str, path: str = "<string>", held: bool = False
) -> List[Tuple[str, int, str]]:
    """Lint one source string (the tests' fixture entry point); ``held``
    lints it as a :data:`HELD_FILES` entry."""
    walker = _LockWalker(path, held)
    walker.visit(ast.parse(source, filename=path))
    return sorted(walker.violations)


def main() -> int:
    violations = find_lock_violations()
    if violations:
        print("slow calls under a guarded lock:")
        for path, line, call in violations:
            print(f"  {path}:{line}: {call}() must run with the lock "
                  f"released — see the SessionCore lock discipline")
        return 1
    print(f"lock guard: no settling, pool publication, or job submission "
          f"under the lock in {', '.join(GUARDED_FILES + HELD_FILES)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
