"""The engine's per-job state: a flat, slotted record with lazy guest lists.

``_JobState`` declares ``__slots__`` for every field, copies the trace
fields that policies and the engine read (``name``, ``is_foreground``,
``arrival_time``, ``global_batch``, ``max_gpus``) once at construction,
and starts every job on one shared, never-mutated empty guest list
(``_NO_GUESTS``); the first guest to attach gives its host a list of its
own.  These tests check that a misspelled field cannot be created, that
the flat fields equal the trace's after a run and after a snapshot
restore, and that a mid-run snapshot whose hosts gained and then lost
guests keeps its pinned digest through capture, restore and capture.
"""

import pytest

from repro.sched import ClusterScheduler, SchedulerEngine, inject_failures, synthetic_trace
from repro.sched.engine import _NO_GUESTS, _JobState
from repro.sched.snapshot import EngineSnapshot

from test_event_primitives import _scheduler

#: ``snapshot_fingerprint`` of the run below after ``_CAPTURE_STEP`` steps.
_PINNED_DIGEST = "7b3e83c3e3178b185036929c57ecb6cd5ef5194d081583ab5b493ff3ba092a1e"
_CAPTURE_STEP = 109

_FLAT_FIELDS = ("name", "is_foreground", "arrival_time", "global_batch", "max_gpus")


def _engine(sched: ClusterScheduler) -> SchedulerEngine:
    """A background-heavy collocation run with host failures."""
    engine = SchedulerEngine(sched, "collocation")
    for job in synthetic_trace(40, seed=1, arrival_rate=4.0, bg_fraction=0.6):
        engine.add_job(job)
    engine.add_failures(
        inject_failures(sched.fleet, 3, seed=1, window=(1.0, 15.0), mean_downtime=8.0)
    )
    return engine


def _assert_flat_fields(engine: SchedulerEngine) -> None:
    for state in engine.states.values():
        for field in _FLAT_FIELDS:
            assert getattr(state, field) == getattr(state.trace, field), (
                state.name,
                field,
            )


def _assert_guest_lists(engine: SchedulerEngine) -> None:
    for state in engine.states.values():
        guests = state.guest_order
        assert (guests is _NO_GUESTS) == (guests._next_seq == 0), state.name
    assert len(_NO_GUESTS) == 0 and _NO_GUESTS._next_seq == 0


class TestSlots:
    def test_undeclared_attribute_raises(self):
        engine = _engine(_scheduler())
        state = next(iter(engine.states.values()))
        with pytest.raises(AttributeError):
            state.remaning = 0.0  # misspelled ``remaining``
        assert not hasattr(state, "__dict__")

    def test_only_computed_property_is_left(self):
        properties = [
            name for name, value in vars(_JobState).items() if isinstance(value, property)
        ]
        assert properties == ["remaining_gpu_seconds"]

    def test_flat_fields_equal_trace_after_run_and_restore(self):
        sched = _scheduler()
        engine = _engine(sched)
        _assert_flat_fields(engine)
        for _ in range(_CAPTURE_STEP):
            engine.step()
        restored = SchedulerEngine(sched, "collocation")
        restored.restore(EngineSnapshot.from_json(engine.snapshot().to_json()))
        _assert_flat_fields(restored)
        engine.drain()
        restored.drain()
        _assert_flat_fields(engine)
        _assert_flat_fields(restored)
        assert restored.result() == engine.result()


class TestSnapshotBytes:
    def test_pinned_digest_through_capture_restore_capture(self):
        sched = _scheduler()
        engine = _engine(sched)
        for _ in range(_CAPTURE_STEP):
            engine.step()
        running = list(engine.fg_running)
        # The capture holds a host whose guests all left (its own, emptied
        # list) beside a host with guests and jobs that never hosted.
        assert any(s.hosted for s in running)
        assert any(s.guest_order is not _NO_GUESTS and not s.hosted for s in running)
        assert any(s.guest_order is _NO_GUESTS for s in running)
        snapshot = engine.snapshot()
        assert snapshot.fingerprint() == _PINNED_DIGEST

        for payload in (snapshot, EngineSnapshot.from_json(snapshot.to_json())):
            restored = SchedulerEngine(sched, "collocation")
            restored.restore(payload)
            _assert_guest_lists(restored)
            assert restored.snapshot().fingerprint() == _PINNED_DIGEST
            assert restored.snapshot().to_json() == snapshot.to_json()
        _assert_guest_lists(engine)
