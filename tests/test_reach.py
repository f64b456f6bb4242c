"""The reach ledger (``tools/reach.py``) on a fixture package.

Two surfaces: one calls two functions (one of them decorated); the
other forks, and only the child, which leaves through ``os._exit``,
enters a method.
"""

from __future__ import annotations

import importlib.util
import io
import json
import pathlib
import shutil
import textwrap

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "reach.py"
_spec = importlib.util.spec_from_file_location("reach", TOOL)
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

MODULE = '''\
import functools


def used():
    a = 1
    b = 2
    return a + b


def planted():
    a = 1
    b = 2
    return a + b


def tiny():
    return 0


def trace(fn):
    @functools.wraps(fn)
    def wrapper(*args):
        return fn(*args)
    return wrapper


@trace
def decorated():
    a = 1
    b = 2
    return a + b


class Box:
    def in_child(self):
        a = 1
        b = 2
        return a + b
'''

FORK = '''\
import os
import fixturepkg.mod as mod

pid = os.fork()
if pid == 0:
    mod.Box().in_child()
    os._exit(0)
os.waitpid(pid, 0)
'''

SURFACES = '''\
python -c "import fixturepkg.mod as m; m.used(); m.decorated()"
python fork.py
'''


@pytest.fixture
def fixture(tmp_path):
    package = tmp_path / "src" / "fixturepkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(MODULE)
    (tmp_path / "fork.py").write_text(FORK)
    (tmp_path / "surfaces.txt").write_text(SURFACES)
    return tmp_path


def run(root: pathlib.Path, allow: str):
    (root / "allow.txt").write_text(textwrap.dedent(allow))
    out = io.StringIO()
    status = reach.check(root / "src" / "fixturepkg", root / "surfaces.txt",
                         root / "allow.txt", cwd=root, out=out)
    return status, out.getvalue()


def never_entered(report: str) -> str:
    """The report's per-module list of never-entered functions."""
    return report.split("never entered")[1].split("unreached:")[0]


def test_a_planted_unreached_function_fails(fixture):
    status, report = run(fixture, "")
    assert status == 1
    assert "error: mod.py:planted is never entered" in report
    # below the size floor: listed, not an error
    assert "   2  tiny" in never_entered(report)
    assert "mod.py:tiny" not in report


def test_an_allowlisted_function_passes(fixture):
    status, report = run(fixture, "mod.py:planted  kept for the test\n")
    assert status == 0, report
    assert "*    4  planted" in never_entered(report)


def test_a_stale_entry_fails(fixture):
    status, report = run(fixture, """\
        mod.py:planted  kept for the test
        mod.py:used  reached by the first surface
        mod.py:gone  no such function
        """)
    assert status == 1
    assert "stale allow.txt entry mod.py:used" in report
    assert "stale allow.txt entry mod.py:gone" in report
    assert "mod.py:planted" not in report


def test_a_function_entered_only_in_a_forked_child_is_reached(fixture):
    _, report = run(fixture, "mod.py:planted  kept for the test\n")
    assert "in_child" not in never_entered(report)


def test_a_decorated_function_is_matched_from_its_decorator(fixture):
    functions, _ = reach.inventory(fixture / "src" / "fixturepkg")
    starts = {f.qualname: f.start for f in functions.values()}
    assert starts["decorated"] == MODULE.splitlines().index("@trace") + 1
    assert {f.qualname for f in functions.values()} == {
        "used", "planted", "tiny", "trace", "decorated", "Box.in_child"}
    _, report = run(fixture, "mod.py:planted  kept for the test\n")
    assert "decorated" not in never_entered(report)


def test_a_failing_surface_fails_the_check(fixture):
    (fixture / "surfaces.txt").write_text(SURFACES + "exit 3\n")
    status, report = run(fixture, "mod.py:planted  kept for the test\n")
    assert status == 1
    assert "error: surface failed: exit 3" in report


def test_surfaces_find_python_when_path_has_none(fixture, monkeypatch):
    """A PATH with bash and no ``python``: the surfaces' ``python`` is
    the interpreter running the ledger."""
    only_bash = fixture / "only-bash"
    only_bash.mkdir()
    (only_bash / "bash").symlink_to(shutil.which("bash"))
    monkeypatch.setenv("PATH", str(only_bash))
    status, report = run(fixture, "mod.py:planted  kept for the test\n")
    assert status == 0, report
    assert "in_child" not in never_entered(report)


def test_an_entry_without_a_reason_is_refused(fixture):
    with pytest.raises(SystemExit, match="mod.py:planted has no reason"):
        run(fixture, "mod.py:planted\n")


def test_a_function_entered_only_in_a_thread_is_reached(fixture):
    (fixture / "thread.py").write_text(
        "import threading\n"
        "import fixturepkg.mod as mod\n"
        "worker = threading.Thread(target=mod.planted)\n"
        "worker.start()\n"
        "worker.join()\n")
    (fixture / "surfaces.txt").write_text(SURFACES + "python thread.py\n")
    status, report = run(fixture, "")
    assert status == 0, report
    assert "planted" not in never_entered(report)


def test_a_function_entered_in_a_surfaces_subprocess_is_reached(fixture):
    (fixture / "spawn.py").write_text(
        "import subprocess, sys\n"
        "subprocess.run([sys.executable, '-c', 'import fixturepkg.mod as m; "
        "m.planted()'], check=True)\n")
    (fixture / "surfaces.txt").write_text(SURFACES + "python spawn.py\n")
    status, report = run(fixture, "")
    assert status == 0, report
    assert "planted" not in never_entered(report)


def test_statement_lines_are_the_lines_statements_start_on(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "m.py").write_text(textwrap.dedent('''\
        def f():
            """Docstring."""
            total = (1 +
                     2)
            if total:
                return total
            return 0
        '''))
    functions, total = reach.inventory(package)
    (f,) = functions.values()
    # def, docstring, assignment, if, two returns; the continuation
    # line of the assignment starts none
    assert (f.qualname, f.start, f.statements) == ("f", 1, 6)
    assert total == 6


def test_methods_are_named_by_their_classes_and_inner_defs_are_not_listed(
    tmp_path,
):
    package = tmp_path / "pkg"
    (package / "sub").mkdir(parents=True)
    (package / "sub" / "m.py").write_text(textwrap.dedent('''\
        class Outer:
            class Inner:
                async def method(self):
                    def helper():
                        return 1
                    return helper()
        '''))
    functions, _ = reach.inventory(package)
    assert [f.name for f in functions.values()] == [
        "sub/m.py:Outer.Inner.method"]


def test_the_share_line_totals_the_unreached_statement_lines(fixture):
    _, report = run(fixture, "mod.py:planted  kept for the test\n")
    functions, total = reach.inventory(fixture / "src" / "fixturepkg")
    # planted (4) and tiny (2) are the two never entered
    assert f"unreached: 6 of {total} statement lines" in report
    assert f"in 2 of {len(functions)} functions" in report
    assert "mod.py  6\n" in never_entered(report)


def test_comments_and_blank_lines_are_skipped(fixture):
    (fixture / "surfaces.txt").write_text("# a comment\n\n" + SURFACES)
    status, report = run(fixture, """\
        # why planted stays

        mod.py:planted  kept for the test, with a long reason
        """)
    assert status == 0, report
    assert reach.read_allowlist(fixture / "allow.txt") == {
        "mod.py:planted": "kept for the test, with a long reason"}
    assert reach.read_surfaces(fixture / "surfaces.txt") == (
        SURFACES.splitlines())


def test_every_entry_of_the_repo_allowlist_names_a_function():
    """Static half of the stale check: a renamed or deleted function
    fails here before any surface runs."""
    functions, _ = reach.inventory(ROOT / "src" / "repro")
    names = {f.name for f in functions.values()}
    allowed = reach.read_allowlist(ROOT / "tools" / "reach_allow.txt")
    assert allowed
    assert sorted(set(allowed) - names) == []


def test_every_benchmark_workload_is_a_surface():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    surfaces = reach.read_surfaces(ROOT / "tools" / "reach_surfaces.txt")
    (bench,) = [line for line in surfaces if "bench/run.py" in line]
    listed = bench.split(" in ", 1)[1].split(";", 1)[0].split()
    assert sorted(listed) == sorted(w["name"] for w in benchmark["workloads"])
