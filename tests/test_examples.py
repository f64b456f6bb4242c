"""Smoke tests: every example script runs cleanly and prints its story."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parent.parent / "examples").glob("*.py")
)

#: Lines an example must print: the paper mechanisms it is the only
#: product surface of (§3.5 forwarding, Ch. 4 internetwork and §4.1
#: relay, §6.2.1 monitor, §7.2 proof schedules).
EXPECTED = {
    "avoid_hostile_as.py": (
        "real-time packet: ABCF (encapsulated over B)",
        "web packet:       ABEF",
    ),
    "intra_as_dataplane.py": (
        "R2: AS path (100, 300) (egress R2)",
        "R3: AS path (200, 300) (egress R3)",
        "Router relay: R1 collected ['(100, 300) via R2']",
        "Path (V, U) failed: tunnels left []",
    ),
    "policy_configuration.py": (
        "after link B-C fails:\n        triggered NEG-5",
        "after link B-C is repaired:\n        triggered NEG-5\n"
        "        established (asked AS 2) 2-3-6",
    ),
    "convergence_demo.py": (
        "fig 7.2 D, proof_schedule_strict: 3 phases, converged",
        "BAD GADGET, plain BGP with peer routes ranked over customer "
        "routes: OSCILLATES",
    ),
}


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True, text=True, timeout=240,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip(), "example produced no output"
    for line in EXPECTED.get(script.name, ()):
        assert line in result.stdout


def test_expected_examples_present():
    names = {p.name for p in EXAMPLES}
    assert "quickstart.py" in names
    assert len(names) >= 3
