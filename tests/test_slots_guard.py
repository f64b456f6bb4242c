"""The slots guard itself, as a tier-1 test.

Mirrors ``tools/check_slots.py`` (the standalone CI entry point): every
dataclass defined in the hot-path packages ``repro.topology``,
``repro.bgp``, ``repro.convergence``, and ``repro.events`` must carry
its own ``__slots__``, and the workhorse types must genuinely have no
per-instance ``__dict__``.
"""

import importlib.util
import pathlib

from repro.bgp.route import Route, RouteClass
from repro.convergence import GuidelineMode, PartialOrder, fig_7_1_system
from repro.events import DelayModel, EventScheduler, MraiTimer
from repro.topology import TopologyDelta, generate_named

_TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "check_slots.py"


def _load_guard():
    spec = importlib.util.spec_from_file_location("check_slots", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_all_hot_path_dataclasses_are_slotted():
    guard = _load_guard()
    assert guard.find_unslotted() == []


def test_guard_covers_the_workhorse_types():
    guard = _load_guard()
    modules = {m.__name__ for m in guard.iter_guarded_modules()}
    assert "repro.bgp.route" in modules
    assert "repro.bgp.routing" in modules
    assert "repro.topology.delta" in modules
    assert "repro.topology.snapshot" in modules
    assert "repro.topology.generator" in modules
    assert "repro.convergence.model" in modules
    assert "repro.convergence.simulator" in modules
    assert "repro.convergence.eventsim" in modules
    assert "repro.events.engine" in modules
    assert "repro.events.timers" in modules


def test_route_has_no_instance_dict():
    route = Route((1, 2), RouteClass.CUSTOMER)
    assert not hasattr(route, "__dict__")
    assert hasattr(Route, "__slots__")


def test_route_tree_is_a_guarded_slotted_dataclass():
    """A session caches one tree per table; the guard finds it because
    it is a dataclass in ``repro.bgp``, and it must stay ``__dict__``-free."""
    import dataclasses

    from repro.bgp.kernels.scalar import compute_routes_snapshot
    from repro.bgp.routing import RouteTree

    assert dataclasses.is_dataclass(RouteTree)
    assert "__slots__" in RouteTree.__dict__
    graph = generate_named("tiny", seed=0)
    tree = compute_routes_snapshot(graph.snapshot(), graph.ases[0])
    assert type(tree) is RouteTree and not hasattr(tree, "__dict__")
    tree.route(graph.ases[1])  # the lazily built column lives in a slot too
    assert not hasattr(tree, "__dict__")


def test_applied_delta_has_no_instance_dict():
    graph = generate_named("tiny", seed=0)
    a, b, _ = next(graph.iter_links())
    applied = TopologyDelta.link_down(a, b).apply(graph)
    assert not hasattr(applied, "__dict__")
    applied.revert()


def test_snapshot_is_slotted():
    graph = generate_named("tiny", seed=0)
    snapshot = graph.snapshot()
    assert not hasattr(snapshot, "__dict__")


def test_convergence_types_have_no_instance_dict():
    result = fig_7_1_system(GuidelineMode.GUIDELINE_B).run()
    assert not hasattr(result, "__dict__")
    selection = result.selection(1, 4)
    assert not hasattr(selection, "__dict__")
    order = PartialOrder(((1, 2),))
    assert not hasattr(order, "__dict__")
    assert order.allows(1, 2)


def test_event_types_have_no_instance_dict():
    scheduler = EventScheduler()
    scheduler.register("tick", lambda event: None)
    event = scheduler.schedule(1.0, "tick")
    assert not hasattr(event, "__dict__")
    assert not hasattr(MraiTimer(1.0), "__dict__")
    assert not hasattr(DelayModel(), "__dict__")
