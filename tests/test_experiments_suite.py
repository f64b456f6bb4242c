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
def _experiment_output(which):
    """What ``repro experiment <which>`` prints at verify-500, seed 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([
            "experiment", which, "--profile", "verify-500", "--seed", "0",
        ]) == 0
    return out.getvalue()


@pytest.mark.parametrize("name", [s.name for s in SECTIONS])
def test_one_experiment_prints_its_block_of_all(name):
    blocks = _experiment_output("all").rstrip("\n").split("\n\n")
    assert len(blocks) == len(SECTIONS)
    block = blocks[[s.name for s in SECTIONS].index(name)]
    assert _experiment_output(name).rstrip("\n") == block
