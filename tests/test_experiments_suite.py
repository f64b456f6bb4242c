"""One list of sections drives the report, the export and the CLI."""

import argparse
import contextlib
import functools
import io

import pytest

from repro import cli
from repro.experiments import SECTIONS, export_results, full_report
from repro.experiments.suite import Inputs
from repro.session import SimulationSession


def _experiment_choices():
    for action in cli.build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            experiment = action.choices["experiment"]
    (which,) = [a for a in experiment._actions if a.dest == "which"]
    return which.choices


def test_every_section_is_a_choice_a_report_block_and_export_entries(
    small_graph,
):
    """At the shared default sizes, each section's own result is what
    ``full_report`` prints and what ``export_results`` writes."""
    assert _experiment_choices() == [s.name for s in SECTIONS] + ["all"]
    report = full_report(small_graph, "small", seed=1)
    document = export_results(small_graph, "small", seed=1)
    inputs = Inputs(small_graph, "small", 1, SimulationSession(small_graph))
    texts = []
    for section in SECTIONS:
        result = section.run(inputs)
        texts.append(section.text(result))
        assert texts[-1] in report, section.name
        entries = section.entries(result)
        assert entries, section.name
        assert entries == {key: document[key] for key in entries}, section.name
    assert report == "\n\n".join(texts)


@functools.lru_cache(maxsize=None)
def _experiment_output(which, profile="verify-500"):
    """What ``repro experiment <which>`` prints at ``profile``, seed 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([
            "experiment", which, "--profile", profile, "--seed", "0",
        ]) == 0
    return out.getvalue()


def _block_of_all(name, profile="verify-500"):
    blocks = _experiment_output("all", profile).rstrip("\n").split("\n\n")
    assert len(blocks) == len(SECTIONS)
    return blocks[[s.name for s in SECTIONS].index(name)]


@pytest.mark.parametrize("name", [s.name for s in SECTIONS])
def test_one_experiment_prints_its_block_of_all(name):
    assert _experiment_output(name).rstrip("\n") == _block_of_all(name)


def test_earlier_sections_leave_the_overhead_count_alone():
    """The failure sections apply and revert deltas on the shared
    graph; a revert that left re-added links last in their endpoints'
    neighbour order changed the BGP message count of the overhead
    section that follows them (tiny, seed 0: 1,408 against 1,341)."""
    assert _experiment_output("overhead", "tiny").rstrip("\n") == \
        _block_of_all("overhead", "tiny")
