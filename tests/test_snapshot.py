"""Engine snapshot/restore and the event total-order audit.

Crash safety rests on two properties this file pins down:

* the event heap's ``(time, seq)`` ordering is a *strict total order*, so
  serializing the heap in sorted order and rebuilding it elsewhere replays
  the exact same pop sequence (ties included); and
* :class:`~repro.sched.snapshot.EngineSnapshot` taken at *any* event
  boundary restores into a fresh engine — same process or a brand new
  one — whose continued run is ``result_fingerprint``-identical to the
  uninterrupted run.
"""

import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.obs.metrics import global_registry
from repro.profiler.gpu_spec import A100_40GB, V100_32GB
from repro.sched import (
    ClusterFleet,
    ClusterScheduler,
    EngineSnapshot,
    EventKind,
    EventQueue,
    GpuPoolSpec,
    SchedulerEngine,
    inject_failures,
    synthetic_trace,
)
from repro.sched.events import Event
from repro.sched.snapshot import SNAPSHOT_SCHEMA
from repro.serve.replay import result_fingerprint

# ---------------------------------------------------------------------------
# Workload fixtures: one homogeneous sched_sim-class config and one
# heterogeneous fleet with injected failures.  Small enough that the
# hypothesis property test can re-run the suffix per example.
# ---------------------------------------------------------------------------


def _mixed_fleet():
    return ClusterFleet(
        (
            GpuPoolSpec("a100", A100_40GB, 16, 4),
            GpuPoolSpec("v100", V100_32GB, 16, 4),
        )
    )


_CONFIGS = {
    "homogeneous": {
        "fleet": lambda: 32,
        "policy": "collocation",
        "num_jobs": 18,
        "seed": 11,
        "failures": 0,
    },
    "hetero-failures": {
        "fleet": _mixed_fleet,
        "policy": "collocation",
        "num_jobs": 14,
        "seed": 7,
        "failures": 3,
    },
}


def _build_engine(config):
    scheduler = ClusterScheduler(config["fleet"]())
    return SchedulerEngine(scheduler, config["policy"])


def _trace(config):
    return sorted(
        synthetic_trace(config["num_jobs"], seed=config["seed"]),
        key=lambda job: job.arrival_time,
    )


def _load_engine(config):
    """Engine with the config's jobs and failure schedule queued, clock at 0."""
    engine = _build_engine(config)
    for job in _trace(config):
        engine.add_job(job)
    if config["failures"]:
        engine.add_failures(
            inject_failures(
                engine.scheduler.fleet, config["failures"], seed=config["seed"]
            )
        )
    return engine


@lru_cache(maxsize=None)
def _baseline(name):
    """(fingerprint, total_steps) of the uninterrupted run for one config."""
    engine = _load_engine(_CONFIGS[name])
    steps = engine.drain()
    return result_fingerprint(engine.result()), steps


def _fingerprint_after_cut(name, cut):
    """Run ``cut`` steps, snapshot, restore into a fresh engine, finish there."""
    config = _CONFIGS[name]
    source = _load_engine(config)
    for _ in range(cut):
        source.step()
    # Round-trip through canonical JSON: the persisted form must carry
    # everything the in-memory object does.
    snapshot = EngineSnapshot.from_json(source.snapshot().to_json())
    target = _build_engine(config)
    target.restore(snapshot)
    target.drain()
    return result_fingerprint(target.result())


# ---------------------------------------------------------------------------
# Event total-order audit
# ---------------------------------------------------------------------------


class TestEventTotalOrder:
    def test_lt_orders_by_time_then_seq(self):
        early = Event(1.0, 5, EventKind.JOB_ARRIVAL, "a")
        late = Event(2.0, 1, EventKind.JOB_ARRIVAL, "b")
        assert early < late and not late < early
        tied_first = Event(2.0, 1, EventKind.JOB_FINISH, "c")
        tied_second = Event(2.0, 2, EventKind.JOB_ARRIVAL, "d")
        assert tied_first < tied_second and not tied_second < tied_first

    def test_lt_is_a_strict_total_order(self):
        # Within one queue seq is unique, so for any two distinct events
        # exactly one of a<b, b<a holds — no ties left to break arbitrarily.
        times = [3.0, 1.0, 2.0, 1.0, 3.0, 1.0, 2.0]
        events = [
            Event(time, seq, EventKind.JOB_ARRIVAL, f"job-{seq}")
            for seq, time in enumerate(times)
        ]
        for a in events:
            assert not a < a
            for b in events:
                if a is b:
                    continue
                assert (a < b) != (b < a)
                for c in events:
                    if a < b and b < c:
                        assert a < c

    def test_heap_pop_order_matches_sorted_order(self):
        queue = EventQueue()
        arrivals = [2.0, 1.0, 1.0, 3.0, 2.0, 1.0, 0.5, 3.0]
        for index, time in enumerate(arrivals):
            queue.push(time, EventKind.JOB_ARRIVAL, f"job-{index}")
        mirror = sorted(
            Event(time, seq, EventKind.JOB_ARRIVAL, f"job-{seq}")
            for seq, time in enumerate(arrivals)
        )
        popped = [queue.pop() for _ in range(len(arrivals))]
        assert [(e.time, e.seq) for e in popped] == [
            (e.time, e.seq) for e in mirror
        ]
        # Strictly increasing (time, seq): the pop sequence is reproducible.
        keys = [(e.time, e.seq) for e in popped]
        assert all(a < b for a, b in zip(keys, keys[1:]))

    def test_exact_time_ties_resolve_in_push_order(self):
        queue = EventQueue()
        for name in ("first", "second", "third"):
            queue.push(7.0, EventKind.JOB_ARRIVAL, name)
        assert [queue.pop().job_name for _ in range(3)] == [
            "first",
            "second",
            "third",
        ]

    @given(times=st.lists(st.sampled_from([0.0, 1.0, 1.5, 2.0]), min_size=1, max_size=24))
    @settings(max_examples=50, deadline=None)
    def test_heap_order_equals_sorted_order_property(self, times):
        queue = EventQueue()
        for index, time in enumerate(times):
            queue.push(time, EventKind.JOB_ARRIVAL, f"job-{index}")
        popped = [queue.pop() for _ in range(len(times))]
        assert popped == sorted(popped)


# ---------------------------------------------------------------------------
# Snapshot/restore parity
# ---------------------------------------------------------------------------


class TestEngineSnapshotParity:
    @pytest.mark.parametrize("name", sorted(_CONFIGS))
    def test_restore_at_fixed_cuts_matches_uninterrupted_run(self, name):
        baseline, total = _baseline(name)
        for cut in (0, 1, total // 3, total // 2, total - 1, total):
            assert _fingerprint_after_cut(name, cut) == baseline, (
                f"divergence after restoring at event {cut}/{total}"
            )

    def test_restore_while_a_host_is_down_matches_uninterrupted_run(self):
        # Cut halfway through the first downtime window: the snapshot sits
        # between a NODE_FAILURE and its NODE_RECOVERY, so the down host
        # must cross the restore intact.
        name = "hetero-failures"
        config = _CONFIGS[name]
        baseline, _ = _baseline(name)
        source = _load_engine(config)
        failure = min(
            inject_failures(source.scheduler.fleet, config["failures"], seed=config["seed"]),
            key=lambda f: f.time,
        )
        cut = (failure.time + failure.recovery_time) / 2.0
        while source.queue.peek_time() <= cut:
            source.step()
        assert failure.time <= source.clock < failure.recovery_time
        snapshot = EngineSnapshot.from_json(source.snapshot().to_json())
        free = snapshot.payload["free"]
        assert failure.host in free["down_hosts"]
        assert set(source.scheduler.fleet.gpus_of_host(failure.host)) <= set(free["down"])
        target = _build_engine(config)
        target.restore(snapshot)
        assert target.free.num_down_hosts == source.free.num_down_hosts
        target.drain()
        assert result_fingerprint(target.result()) == baseline

    @pytest.mark.parametrize("name", sorted(_CONFIGS))
    def test_capture_is_read_only(self, name):
        baseline, total = _baseline(name)
        engine = _load_engine(_CONFIGS[name])
        for step in range(total):
            if step % 5 == 0:
                engine.snapshot()
            engine.step()
        assert result_fingerprint(engine.result()) == baseline

    def test_snapshot_fingerprint_is_stable_and_content_addressed(self):
        config = _CONFIGS["homogeneous"]
        engine = _load_engine(config)
        for _ in range(9):
            engine.step()
        first = engine.snapshot()
        second = engine.snapshot()
        assert first.fingerprint() == second.fingerprint()
        assert first.to_json() == second.to_json()
        engine.step()
        assert engine.snapshot().fingerprint() != first.fingerprint()

    def test_inspection_accessors(self):
        config = _CONFIGS["homogeneous"]
        engine = _load_engine(config)
        for _ in range(6):
            engine.step()
        snapshot = engine.snapshot()
        assert snapshot.clock == engine.clock
        assert snapshot.events_processed == 6
        assert snapshot.events_pending == len(engine.queue)
        assert snapshot.job_names() == sorted(engine.states)
        some_job = snapshot.job_names()[0]
        assert snapshot.job_status(some_job) == engine.states[some_job].status
        assert snapshot.job_status("no-such-job") is None

    @pytest.mark.parametrize("name", sorted(_CONFIGS))
    @given(cut=st.integers(min_value=0, max_value=10_000))
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_restore_at_random_cut_matches_uninterrupted_run(self, name, cut):
        baseline, total = _baseline(name)
        assert _fingerprint_after_cut(name, cut % (total + 1)) == baseline


@lru_cache(maxsize=None)
def _reference_run(name):
    """The uninterrupted run's result and each event's dispatch time."""
    engine = _load_engine(_CONFIGS[name])
    times = tuple(engine.step().time for _ in range(_baseline(name)[1]))
    return engine.result(), times


def _restore(config, engine):
    """Move ``engine``'s run into a fresh engine through canonical JSON."""
    target = _build_engine(config)
    target.restore(EngineSnapshot.from_json(engine.snapshot().to_json()))
    return target


def _run_with_time_cuts(name, bounds):
    """``advance_to`` each bound, restoring into a fresh engine at every one,
    then drain; returns the final engine and the steps taken in all."""
    config = _CONFIGS[name]
    engine, steps = _load_engine(config), 0
    for bound in bounds:
        steps += engine.advance_to(bound)
        engine = _restore(config, engine)
    return engine, steps + engine.drain()


#: Named simulated-time bounds, picked from the uninterrupted run's event times.
_BOUNDS = {
    "first-event": lambda t: t[0],
    "quarter": lambda t: t[len(t) // 4],
    "half": lambda t: t[len(t) // 2],
    "mid-gap": lambda t: next(
        (a + b) / 2.0 for a, b in zip(t[len(t) // 3 :], t[len(t) // 3 + 1 :]) if a < b
    ),
    "past-last-event": lambda t: t[-1] + 1.0,
}


class TestTimeBoundaryRestore:
    """Cuts at simulated-time bounds (``advance_to``, the way the service
    moves its clock) rather than at event counts."""

    @pytest.mark.parametrize("name", sorted(_CONFIGS))
    @pytest.mark.parametrize("epochs", [1, 2, 3, 5, 8])
    def test_chained_restores_at_arrival_quantiles_match_uninterrupted_run(
        self, name, epochs
    ):
        reference, times = _reference_run(name)
        arrivals = [job.arrival_time for job in _trace(_CONFIGS[name])]
        bounds = [arrivals[k * len(arrivals) // epochs] for k in range(1, epochs)]
        engine, steps = _run_with_time_cuts(name, bounds)
        result = engine.result()
        assert steps == len(times) == result.events_processed
        assert result_fingerprint(result) == result_fingerprint(reference)
        assert (result.records, result.metrics) == (reference.records, reference.metrics)

    @pytest.mark.parametrize("name", sorted(_CONFIGS))
    @pytest.mark.parametrize("where", sorted(_BOUNDS))
    def test_advance_to_dispatches_exactly_the_events_before_the_bound(
        self, name, where
    ):
        reference, times = _reference_run(name)
        bound = _BOUNDS[where](times)
        engine = _load_engine(_CONFIGS[name])
        # Exclusive bound: an event at exactly ``bound`` stays queued.
        assert engine.advance_to(bound) == sum(1 for t in times if t < bound)
        assert engine.clock == bound
        assert not engine.queue or engine.queue.peek_time() >= bound
        # Repeating the bound, or going back before it, is a no-op.
        before = engine.snapshot().fingerprint()
        assert engine.advance_to(bound) == engine.advance_to(bound / 2.0) == 0
        assert engine.snapshot().fingerprint() == before
        engine = _restore(_CONFIGS[name], engine)
        engine.drain()
        assert result_fingerprint(engine.result()) == result_fingerprint(reference)

    @pytest.mark.parametrize("at", ["time", "recovery_time"])
    def test_bound_at_a_failure_window_edge_carries_the_host_state(self, at):
        name = "hetero-failures"
        config = _CONFIGS[name]
        reference, _ = _reference_run(name)
        engine = _load_engine(config)
        failure = min(
            inject_failures(engine.scheduler.fleet, config["failures"], seed=config["seed"]),
            key=lambda f: f.time,
        )
        engine.advance_to(getattr(failure, at))
        # A bound at the failure's own time leaves it queued; one at the
        # recovery time leaves the recovery queued, so the host is down.
        down_hosts = engine.snapshot().payload["free"]["down_hosts"]
        assert (failure.host in down_hosts) == (at == "recovery_time")
        restored = _restore(config, engine)
        assert restored.free.num_down_hosts == engine.free.num_down_hosts
        restored.drain()
        assert result_fingerprint(restored.result()) == result_fingerprint(reference)

    @pytest.mark.parametrize("name", sorted(_CONFIGS))
    def test_chained_restores_count_each_event_once(self, name):
        _, times = _reference_run(name)
        registry = global_registry()
        before = registry.snapshot()
        _load_engine(_CONFIGS[name]).drain()
        uninterrupted = registry.delta_since(before)
        before = registry.snapshot()
        _run_with_time_cuts(name, times[:: max(1, len(times) // 4)])
        chained = registry.delta_since(before)
        events = [key for key in uninterrupted if key.startswith("sched.events.")]
        assert uninterrupted["sched.events.arrival"] == _CONFIGS[name]["num_jobs"]
        assert {k: chained.get(k) for k in events} == {k: uninterrupted[k] for k in events}

    @pytest.mark.parametrize("name", sorted(_CONFIGS))
    @given(fractions=st.lists(st.floats(min_value=0.0, max_value=1.1), max_size=4))
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_restore_at_random_times_matches_uninterrupted_run(self, name, fractions):
        reference, times = _reference_run(name)
        engine, steps = _run_with_time_cuts(
            name, sorted(fraction * times[-1] for fraction in fractions)
        )
        assert steps == len(times)
        assert result_fingerprint(engine.result()) == result_fingerprint(reference)


class TestRestoreWithGuestsInPlace:
    @pytest.mark.parametrize("name", sorted(_CONFIGS))
    def test_restore_mid_collocation_rebuilds_the_slot_index(self, name):
        # The open-slot index is derived state: the payload layout (and so
        # the schema) is unchanged, and restore rebuilds the index from the
        # restored running foreground jobs.
        assert SNAPSHOT_SCHEMA == 1
        baseline, _ = _baseline(name)
        config = _CONFIGS[name]
        source = _load_engine(config)
        index = source.open_slots
        cuts = 0
        while source.queue and cuts < 3:
            source.step()
            running = list(source.fg_running)
            if not any(fg.hosted for fg in running) or index.first() is None:
                continue
            snapshot = EngineSnapshot.from_json(source.snapshot().to_json())
            target = _build_engine(config)
            target.restore(snapshot)
            rebuilt = target.open_slots
            assert rebuilt.open_slots() == index.open_slots()
            assert rebuilt._keys == index._keys
            assert rebuilt.first()[0].name == index.first()[0].name
            target.drain()
            assert result_fingerprint(target.result()) == baseline
            cuts += 1
        assert cuts == 3, "no cut point with guests collocated and slots open"


_SUBPROCESS_RESTORE_SCRIPT = """
import sys

from repro.sched import ClusterScheduler, EngineSnapshot, SchedulerEngine
from repro.serve.replay import result_fingerprint

snapshot = EngineSnapshot.from_json(open(sys.argv[1]).read())
engine = SchedulerEngine(ClusterScheduler(int(sys.argv[2])), sys.argv[3])
engine.restore(snapshot)
engine.drain()
print(result_fingerprint(engine.result()))
"""


class TestCrossProcessRestore:
    def test_fresh_process_restore_matches_uninterrupted_run(
        self, tmp_path, monkeypatch
    ):
        # Persist a mid-run snapshot, then finish the run in a brand new
        # interpreter: canonical JSON must carry the complete run state.
        name = "homogeneous"
        config = _CONFIGS[name]
        baseline, total = _baseline(name)
        engine = _load_engine(config)
        for _ in range(total // 2):
            engine.step()
        snapshot_path = tmp_path / "engine.json"
        snapshot_path.write_text(engine.snapshot().to_json())

        src_dir = str(Path(repro.__file__).resolve().parents[1])
        monkeypatch.setenv("PYTHONPATH", src_dir)
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                _SUBPROCESS_RESTORE_SCRIPT,
                str(snapshot_path),
                str(config["fleet"]()),
                config["policy"],
            ],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        assert proc.stdout.strip() == baseline


# ---------------------------------------------------------------------------
# Guard rails: mismatched targets and corrupt payloads are rejected loudly
# ---------------------------------------------------------------------------


class TestSnapshotGuards:
    def _snapshot(self, name="homogeneous", steps=8):
        engine = _load_engine(_CONFIGS[name])
        for _ in range(steps):
            engine.step()
        return engine.snapshot()

    def test_restore_requires_a_fresh_engine(self):
        snapshot = self._snapshot()
        used = _load_engine(_CONFIGS["homogeneous"])
        used.step()
        with pytest.raises(ValueError, match="fresh engine"):
            used.restore(snapshot)

    def test_restore_rejects_policy_mismatch(self):
        snapshot = self._snapshot()
        engine = SchedulerEngine(ClusterScheduler(32), "fifo")
        with pytest.raises(ValueError, match="policy"):
            engine.restore(snapshot)

    def test_restore_rejects_fleet_mismatch(self):
        snapshot = self._snapshot()
        engine = SchedulerEngine(ClusterScheduler(16), "collocation")
        with pytest.raises(ValueError, match="fleet"):
            engine.restore(snapshot)

    def test_restore_rejects_profiler_drift(self):
        # A tampered iso_iter_time stands in for "captured under a different
        # planner/profiler configuration" — the restore recomputes and diffs.
        snapshot = self._snapshot()
        snapshot.payload["jobs"][0]["iso_iter_time"] *= 2.0
        engine = _build_engine(_CONFIGS["homogeneous"])
        with pytest.raises(ValueError, match="iso_iter_time"):
            engine.restore(snapshot)

    def test_apply_rejects_schema_mismatch_with_both_versions_named(self):
        # A foreign-schema payload must fail up front with both versions in
        # the message — not as a KeyError deep inside state application.
        snapshot = self._snapshot()
        snapshot.payload["schema"] = 99
        engine = _build_engine(_CONFIGS["homogeneous"])
        with pytest.raises(ValueError, match=r"schema 99.*applies schema 1"):
            engine.restore(snapshot)

    def test_from_json_rejects_wrong_schema_and_shape(self):
        snapshot = self._snapshot()
        doc = snapshot.to_json()
        with pytest.raises(ValueError, match="schema"):
            EngineSnapshot.from_json(doc.replace('"schema":1', '"schema":99', 1))
        with pytest.raises(ValueError, match="JSON object"):
            EngineSnapshot.from_json("[1, 2, 3]")
