"""Unit tests for the discrete-event substrate (``repro.events``)."""

import math

import pytest

from repro.errors import EventError
from repro.events import SYNCHRONOUS, DelayModel, EventScheduler, MraiTimer
from repro.obs import get_registry


@pytest.fixture(autouse=True)
def _clean_registry():
    import repro.obs

    repro.obs.reset()
    yield
    repro.obs.reset()


# ----------------------------------------------------------------------
# EventScheduler
# ----------------------------------------------------------------------
def test_events_dispatch_in_time_order():
    scheduler = EventScheduler()
    log = []
    scheduler.register("tick", lambda event: log.append(event.time))
    for time in (3.0, 1.0, 2.0):
        scheduler.schedule(time, "tick")
    assert scheduler.run() == 3
    assert log == [1.0, 2.0, 3.0]
    assert scheduler.now == 3.0
    assert scheduler.pending == 0
    assert scheduler.dispatched == 3


def test_same_time_events_dispatch_in_schedule_order():
    scheduler = EventScheduler()
    log = []
    scheduler.register("tick", lambda event: log.append(event.payload))
    for payload in ("a", "b", "c"):
        scheduler.schedule(5.0, "tick", payload)
    scheduler.run()
    assert log == ["a", "b", "c"]


def test_scheduling_into_the_past_raises():
    scheduler = EventScheduler()
    scheduler.register("tick", lambda event: None)
    scheduler.schedule(2.0, "tick")
    scheduler.run()
    with pytest.raises(EventError):
        scheduler.schedule(1.0, "tick")
    with pytest.raises(EventError):
        scheduler.schedule(scheduler.now - 0.5, "tick")
    # scheduling at the current instant is legal
    scheduler.schedule(2.0, "tick")
    assert scheduler.run() == 1


def test_unregistered_kind_raises():
    scheduler = EventScheduler()
    scheduler.schedule(1.0, "mystery")
    with pytest.raises(EventError):
        scheduler.step()


def test_callbacks_can_schedule_followups():
    scheduler = EventScheduler()
    log = []

    def tick(event):
        log.append(event.time)
        if event.time < 3.0:
            scheduler.schedule(event.time + 1.0, "tick")

    scheduler.register("tick", tick)
    scheduler.schedule(0.0, "tick")
    scheduler.run()
    assert log == [0.0, 1.0, 2.0, 3.0]


def test_run_until_leaves_later_events_pending():
    scheduler = EventScheduler()
    scheduler.register("tick", lambda event: None)
    for time in (1.0, 2.0, 3.0):
        scheduler.schedule(time, "tick")
    assert scheduler.run(until=2.0) == 2
    assert scheduler.pending == 1
    assert scheduler.run() == 1


def test_run_max_events_budget():
    scheduler = EventScheduler()

    def tick(event):
        scheduler.schedule(event.time + 1.0, "tick")  # never drains on its own

    scheduler.register("tick", tick)
    scheduler.schedule(0.0, "tick")
    assert scheduler.run(max_events=10) == 10
    assert scheduler.pending == 1


def test_event_latency_and_metrics():
    scheduler = EventScheduler()
    scheduler.register("tick", lambda event: None)
    event = scheduler.schedule(4.0, "tick")
    assert event.latency == 4.0
    scheduler.run()
    snapshot = get_registry().snapshot()

    def tick_value(family):
        (sample,) = [
            s for s in snapshot[family]["samples"]
            if s["labels"] == {"kind": "tick"}
        ]
        return sample["value"]

    assert tick_value("repro_events_scheduled_total") == 1
    assert tick_value("repro_events_dispatched_total") == 1
    (depth,) = snapshot["repro_events_queue_depth"]["samples"]
    assert depth["value"] == 0


def test_sim_span_measures_simulated_time():
    scheduler = EventScheduler()
    scheduler.register("tick", lambda event: None)
    with scheduler.sim_span("window"):
        scheduler.schedule(7.5, "tick")
        scheduler.run()
    snapshot = get_registry().snapshot()
    family = snapshot["repro_events_span_sim_seconds"]
    (sample,) = [
        s for s in family["samples"] if s["labels"] == {"span": "window"}
    ]
    assert sample["sum"] == 7.5
    assert sample["count"] == 1


def test_register_replaces_previous_callback():
    scheduler = EventScheduler()
    log = []
    scheduler.register("tick", lambda event: log.append("old"))
    scheduler.register("tick", lambda event: log.append("new"))
    scheduler.schedule(1.0, "tick")
    scheduler.run()
    assert log == ["new"]


# ----------------------------------------------------------------------
# MraiTimer / DelayModel
# ----------------------------------------------------------------------
def test_mrai_timer_rate_limits():
    timer = MraiTimer(2.0)
    assert timer.earliest(1.0) == 1.0  # never fired: no constraint
    timer.fire(1.0)
    assert timer.earliest(1.5) == 3.0
    assert timer.earliest(4.0) == 4.0


def test_delay_model_defaults_are_synchronous():
    assert SYNCHRONOUS.is_synchronous
    assert DelayModel(mrai=3.0).is_synchronous  # uniform MRAI still sync
    assert not DelayModel(link_delay=0.1).is_synchronous
    assert not DelayModel(link_jitter=0.1).is_synchronous
    assert not DelayModel(negotiation_delay=0.1).is_synchronous
    assert not DelayModel(activation_jitter=0.1).is_synchronous
    assert not DelayModel(link_overrides=(((1, 2), 0.5),)).is_synchronous
    assert not DelayModel(mrai_overrides=((1, 2.0),)).is_synchronous


def test_delay_model_overrides_and_jitter():
    import random

    model = DelayModel(
        link_delay=0.1,
        link_jitter=0.5,
        link_overrides=(((2, 1), 0.9),),
        mrai=1.0,
        mrai_overrides=((7, 4.0),),
    )
    # override applies in either endpoint order; no rng -> no jitter
    assert model.link_delay_for(1, 2) == 0.9
    assert model.link_delay_for(2, 1) == 0.9
    assert model.link_delay_for(3, 4) == 0.1
    assert model.mrai_for(7) == 4.0
    assert model.mrai_for(8) == 1.0
    rng = random.Random(0)
    jittered = model.link_delay_for(3, 4, rng)
    assert 0.1 <= jittered <= 0.6
    # same seed, same draw
    assert model.link_delay_for(3, 4, random.Random(0)) == jittered


def test_delay_model_initial_offset():
    import random

    assert DelayModel().initial_offset(random.Random(0)) == 0.0
    model = DelayModel(activation_jitter=2.0)
    offset = model.initial_offset(random.Random(1))
    assert 0.0 <= offset <= 2.0
    assert model.initial_offset(None) == 0.0


def test_delay_model_rejects_negative_parameters():
    with pytest.raises(EventError):
        DelayModel(link_delay=-0.1)
    with pytest.raises(EventError):
        DelayModel(mrai=-1.0)


def test_delay_model_is_hashable_and_comparable():
    a = DelayModel(link_delay=0.1)
    b = DelayModel(link_delay=0.1)
    assert a == b
    assert hash(a) == hash(b)
    assert not math.isnan(hash(a))
