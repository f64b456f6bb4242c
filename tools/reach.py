#!/usr/bin/env python
"""Reach ledger: every function in ``src/repro`` is reached, allowlisted
with a reason, or removed.

Runs each command of ``tools/reach_surfaces.txt`` (one shell command a
line, from the repo root; ``python`` in it is the interpreter running
this tool) with a recorder on ``PYTHONPATH``: a
``sitecustomize`` module that every Python process of the run imports at
start-up — the commands, their subprocesses, the bench server and pool
workers alike.  It notes each function a process enters
(``sys.setprofile`` / ``threading.setprofile``, keyed on
``(co_filename, co_firstlineno)``) and writes them out at exit, on the
``os._exit`` a forked worker leaves through too.

It then lists every module-level function and method in ``src/repro``
with ``ast`` (a decorated function starts at its first decorator, as
its code object does), prints the ones no process entered per module
with their statement lines, and the share of all statement lines they
hold.  A statement line is a line on which a statement starts.

Exit status 1 when a never-entered function of at least
``MIN_STATEMENTS`` statement lines is not on ``tools/reach_allow.txt``,
when an allowlist entry is stale (its function is now reached, or gone),
or when a surface command fails.  Each allowlist line is
``path:qualname  reason``, the path relative to ``src/repro``.

Run from anywhere: ``python tools/reach.py`` (no flags).
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Set, TextIO, Tuple

ROOT = Path(__file__).resolve().parent.parent
MIN_STATEMENTS = 4

#: The recorder every process of a run imports (as ``sitecustomize``).
#: Code objects are kept by id, so an id is never reused while recording
#: and the hot path is one dict store.
RECORDER = '''\
import atexit, os, sys, tempfile, threading

_OUT = os.environ.get("REACH_OUT")
if _OUT:
    _entered = {}

    def _record(frame, event, arg):
        if event == "call":
            _entered[id(frame.f_code)] = frame.f_code

    def _dump():
        codes = list(_entered.values())
        fd, _ = tempfile.mkstemp(dir=_OUT, prefix=f"{os.getpid()}-")
        with os.fdopen(fd, "w") as out:
            for code in codes:
                out.write(f"{code.co_firstlineno}\\t"
                          f"{os.path.realpath(code.co_filename)}\\n")

    _real_exit = os._exit

    def _exit(status):
        _dump()
        _real_exit(status)

    os._exit = _exit
    atexit.register(_dump)
    threading.setprofile(_record)
    sys.setprofile(_record)
'''

Key = Tuple[str, int]


class Function(NamedTuple):
    """One module-level function or method of the package."""

    path: str
    qualname: str
    start: int
    statements: int

    @property
    def name(self) -> str:
        return f"{self.path}:{self.qualname}"


def _statement_lines(node: ast.AST) -> Set[int]:
    return {n.lineno for n in ast.walk(node) if isinstance(n, ast.stmt)}


def _defs(body: List[ast.stmt], prefix: str) -> Iterator[Tuple[str, ast.AST]]:
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from _defs(node.body, f"{prefix}{node.name}.")


def inventory(package: Path) -> Tuple[Dict[Key, Function], int]:
    """Every function of ``package`` by ``(abs path, first line)``, and
    the package's total statement lines."""
    functions: Dict[Key, Function] = {}
    total = 0
    for file in sorted(package.rglob("*.py")):
        tree = ast.parse(file.read_text(), str(file))
        total += len(_statement_lines(tree))
        relative = file.relative_to(package).as_posix()
        for qualname, node in _defs(tree.body, ""):
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            functions[(str(file), start)] = Function(
                relative, qualname, start, len(_statement_lines(node)))
    return functions, total


def read_allowlist(path: Path) -> Dict[str, str]:
    """``{path:qualname: reason}``; a line without a reason is an error."""
    allowed = {}
    for number, line in enumerate(path.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, reason = line.partition(" ")
        if not reason.strip():
            raise SystemExit(f"{path}:{number}: {name} has no reason")
        allowed[name] = reason.strip()
    return allowed


def read_surfaces(path: Path) -> List[str]:
    return [line.strip() for line in path.read_text().splitlines()
            if line.strip() and not line.lstrip().startswith("#")]


def run_surfaces(surfaces: List[str], src: Path, cwd: Path,
                 out: TextIO) -> Tuple[Set[Key], List[str]]:
    """Run every surface under the recorder: the ``(path, line)`` keys
    entered by any process, and the surfaces that failed."""
    failed = []
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        scratch = Path(scratch)
        site, dumps, work = scratch / "site", scratch / "dumps", scratch / "work"
        bin_dir = scratch / "bin"
        for directory in (site, dumps, work, bin_dir):
            directory.mkdir()
        (site / "sitecustomize.py").write_text(RECORDER)
        # a surface's `python` is this interpreter, whatever PATH holds
        (bin_dir / "python").symlink_to(sys.executable)
        env = dict(os.environ)
        env["PATH"] = os.pathsep.join(
            [str(bin_dir)] + ([env["PATH"]] if env.get("PATH") else []))
        env["PYTHONPATH"] = os.pathsep.join(
            [str(site), str(src)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        env["REACH_OUT"] = str(dumps)
        env["REACH_TMP"] = str(work)
        for command in surfaces:
            started = time.perf_counter()
            done = subprocess.run(
                ["bash", "-c", command], cwd=cwd, env=env,
                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT, text=True)
            seconds = time.perf_counter() - started
            status = "ok" if done.returncode == 0 else f"FAILED ({done.returncode})"
            print(f"  {seconds:6.1f} s  {status}  {command}", file=out)
            if done.returncode != 0:
                failed.append(command)
                print("\n".join(done.stdout.splitlines()[-20:]), file=out)
        reached = set()
        for dump in dumps.iterdir():
            for line in dump.read_text().splitlines():
                first, _, filename = line.partition("\t")
                reached.add((filename, int(first)))
    return reached, failed


def check(package: Path, surfaces: Path, allowlist: Path,
          cwd: Path = ROOT, out: TextIO = sys.stdout) -> int:
    """Run the ledger; 0 when every function is reached or allowlisted."""
    package = package.resolve()
    allowed = read_allowlist(allowlist)
    print(f"surfaces ({surfaces.name}):", file=out)
    reached, failed = run_surfaces(
        read_surfaces(surfaces), package.parent, cwd, out)
    functions, total = inventory(package)
    unreached = [f for key, f in functions.items() if key not in reached]

    by_module: Dict[str, List[Function]] = defaultdict(list)
    for function in unreached:
        by_module[function.path].append(function)
    print("\nnever entered (statement lines; * allowlisted):", file=out)
    for module, listed in by_module.items():
        print(f"{module}  {sum(f.statements for f in listed)}", file=out)
        for f in listed:
            mark = "*" if f.name in allowed else " "
            print(f"  {mark} {f.statements:4d}  {f.qualname}", file=out)
    dead = sum(f.statements for f in unreached)
    print(f"\nunreached: {dead} of {total} statement lines "
          f"({100.0 * dead / max(total, 1):.1f}%) in {len(unreached)} of "
          f"{len(functions)} functions", file=out)

    unreached_names = {f.name for f in unreached}
    new = [f.name for f in unreached
           if f.statements >= MIN_STATEMENTS and f.name not in allowed]
    stale = [name for name in allowed if name not in unreached_names]
    for name in new:
        print(f"error: {name} is never entered and not on "
              f"{allowlist.name}", file=out)
    for name in stale:
        print(f"error: stale {allowlist.name} entry {name} "
              "(reached, or gone)", file=out)
    for command in failed:
        print(f"error: surface failed: {command}", file=out)
    return 1 if new or stale or failed else 0


def main() -> int:
    tools = ROOT / "tools"
    return check(ROOT / "src" / "repro", tools / "reach_surfaces.txt",
                 tools / "reach_allow.txt")


if __name__ == "__main__":
    sys.exit(main())
