"""The event loop's two primitives against their heap references, and GPU
conservation through a run.

:class:`~repro.sched.events.GpuPool` keeps free ids in a sorted list and
:class:`~repro.sched.events.Event` is a named tuple ordered by built-in
tuple comparison.  The references below are the earlier heap free list and
the frozen-dataclass event with a hand-written ``(time, seq)`` ``__lt__``;
Hypothesis drives both sides through the same operations and requires the
same takes, the same pop order and the same snapshot payloads.

The conservation test steps a mixed trace with host failures on a two-pool
fleet and checks, after every event, that each pool's GPUs are split
exactly into free, held by running jobs, and down.
"""

import heapq
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, List

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.profiler.gpu_spec import A100_40GB, V100_32GB
from repro.sched import (
    ClusterFleet,
    ClusterScheduler,
    GpuPoolSpec,
    SchedulerEngine,
    inject_failures,
    synthetic_trace,
)
from repro.sched.events import Event, EventKind, EventQueue, GpuPool


# ---------------------------------------------------------------------------
# References: the heap free list and the dataclass event
# ---------------------------------------------------------------------------


class _HeapGpuPool:
    """Free GPU ids as a min-heap: one ``heappop``/``heappush`` per id."""

    def __init__(self, gpu_ids: Iterable[int] = ()) -> None:
        self._heap = list(gpu_ids)
        heapq.heapify(self._heap)

    def take(self, count: int) -> List[int]:
        if count > len(self._heap):
            raise ValueError(
                f"cannot take {count} GPUs from a pool of {len(self._heap)}"
            )
        return [heapq.heappop(self._heap) for _ in range(count)]

    def release(self, gpu_ids: Iterable[int]) -> None:
        for gpu_id in gpu_ids:
            heapq.heappush(self._heap, gpu_id)

    def remove(self, gpu_ids: Iterable[int]) -> List[int]:
        targets = set(gpu_ids)
        removed = sorted(g for g in self._heap if g in targets)
        if removed:
            self._heap = [g for g in self._heap if g not in targets]
            heapq.heapify(self._heap)
        return removed

    def ids(self) -> List[int]:
        return sorted(self._heap)

    def __len__(self) -> int:
        return len(self._heap)


@dataclass(frozen=True)
class _DataclassEvent:
    time: float
    seq: int
    kind: EventKind
    job_name: str
    version: int = 0
    host: int = -1

    def __lt__(self, other: "_DataclassEvent") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq


class _DataclassEventQueue(EventQueue):
    """The queue holding dataclass events instead of tuples."""

    def push(self, time, kind, job_name, version=0, host=-1):
        event = _DataclassEvent(time, self._next_seq, kind, job_name, version, host)
        self._next_seq += 1
        heapq.heappush(self._heap, event)
        self._pushed.add(1)
        return event


def _fields(event) -> tuple:
    return (
        event.time, event.seq, event.kind, event.job_name, event.version, event.host
    )


# ---------------------------------------------------------------------------
# Free lists
# ---------------------------------------------------------------------------

_POOL_SIZE = 24


class TestGpuPoolMatchesHeap:
    @given(data=st.data(), size=st.integers(min_value=0, max_value=_POOL_SIZE))
    @settings(max_examples=200, deadline=None)
    def test_random_op_sequences(self, data, size):
        real, ref = GpuPool(range(size)), _HeapGpuPool(range(size))
        out: List[int] = []  # ids taken or removed, eligible for release
        ops = data.draw(
            st.lists(
                st.sampled_from(["take", "release", "remove", "rebuild"]),
                max_size=40,
            )
        )
        for op in ops:
            if op == "take":
                count = data.draw(st.integers(min_value=0, max_value=len(ref) + 1))
                if count > len(ref):
                    for pool in (real, ref):
                        with pytest.raises(ValueError):
                            pool.take(count)
                    continue
                taken = real.take(count)
                assert taken == ref.take(count)
                out.extend(taken)
            elif op == "release":
                # A previously taken split, in shuffled order.
                shuffled = data.draw(st.permutations(out))
                cut = data.draw(st.integers(min_value=0, max_value=len(out)))
                back, out = shuffled[:cut], shuffled[cut:]
                real.release(back)
                ref.release(back)
            elif op == "remove":
                targets = data.draw(
                    st.sets(st.integers(min_value=0, max_value=_POOL_SIZE + 4))
                )
                removed = real.remove(targets)
                assert removed == ref.remove(targets)
                out.extend(removed)
            else:
                real, ref = GpuPool(real.ids()), _HeapGpuPool(ref.ids())
            assert real.ids() == ref.ids()
            assert len(real) == len(ref)

    def test_ids_is_a_copy(self):
        pool = GpuPool([3, 1, 2])
        ids = pool.ids()
        ids.append(0)
        assert pool.ids() == [1, 2, 3]


class TestGpuPoolTakeBounds:
    def test_count_bounds(self):
        size = 5
        pool = GpuPool(range(size))
        for count in (-1, size + 1):
            with pytest.raises(ValueError):
                pool.take(count)
            assert pool.ids() == list(range(size))  # a refused take moves nothing
        assert pool.take(0) == []
        assert pool.ids() == list(range(size))
        assert pool.take(size) == list(range(size))
        assert not pool


# ---------------------------------------------------------------------------
# Events
# ---------------------------------------------------------------------------

_TIMES = st.sampled_from([0.0, 0.5, 1.0, 1.0 + 1e-9, 2.0, math.inf])
_KINDS = st.sampled_from(list(EventKind))


@st.composite
def _events(draw, max_size=12):
    times = draw(st.lists(_TIMES, min_size=1, max_size=max_size))
    seqs = draw(st.permutations(range(len(times))))
    return [
        Event(time, seq, draw(_KINDS), f"job-{seq}", draw(st.integers(0, 3)))
        for time, seq in zip(times, seqs)
    ]


class TestEventOrder:
    @given(events=_events())
    def test_tuple_order_is_time_then_seq(self, events):
        for a in events:
            for b in events:
                assert (a < b) == ((a.time, a.seq) < (b.time, b.seq))

    def test_fields_are_read_only(self):
        event = Event(1.0, 0, EventKind.JOB_ARRIVAL, "a")
        with pytest.raises(AttributeError):
            event.time = 2.0
        with pytest.raises(AttributeError):
            event.extra = 1

    def test_nan_time_rejected(self):
        queue = EventQueue()
        with pytest.raises(ValueError):
            queue.push(math.nan, EventKind.JOB_ARRIVAL, "nan")
        queue.push(1.0, EventKind.JOB_ARRIVAL, "late")
        queue.push(0.5, EventKind.JOB_ARRIVAL, "early")
        queue.push(math.inf, EventKind.JOB_ARRIVAL, "never")
        assert [queue.pop().job_name for _ in range(3)] == ["early", "late", "never"]

    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(_TIMES, _KINDS, st.integers(0, 3), st.integers(-1, 3)),
                st.just("pop"),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_queue_matches_dataclass_queue(self, ops):
        real, ref = EventQueue(), _DataclassEventQueue()
        for index, op in enumerate(ops):
            if op == "pop":
                if ref:
                    assert _fields(real.pop()) == _fields(ref.pop())
            else:
                time, kind, version, host = op
                pushed = real.push(time, kind, f"job-{index}", version, host)
                assert _fields(pushed) == _fields(
                    ref.push(time, kind, f"job-{index}", version, host)
                )
            assert real.snapshot_state() == ref.snapshot_state()
        restored = EventQueue()
        restored.restore_state(real.snapshot_state())
        while ref:
            assert _fields(restored.pop()) == _fields(ref.pop())
        assert not restored


# ---------------------------------------------------------------------------
# GPU conservation through a run
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _scheduler() -> ClusterScheduler:
    return ClusterScheduler(
        ClusterFleet(
            (
                GpuPoolSpec("a100", A100_40GB, 8, 4),
                GpuPoolSpec("v100", V100_32GB, 12, 4),
            )
        )
    )


def _assert_conserved(engine: SchedulerEngine) -> None:
    fleet = engine.scheduler.fleet
    down = set(engine.free.down_ids())
    free_by_pool = engine.free.snapshot_state()["free"]
    running = list(engine.fg_running) + list(engine.bg_dedicated)
    for name in fleet.pool_names:
        pool_ids = set(fleet.gpu_ids_of_pool(name))
        free = free_by_pool[name]
        assert all(a < b for a, b in zip(free, free[1:])), free
        held = [g for state in running if state.gpu_type == name for g in state.gpu_ids]
        assert len(held) == len(set(held)), held
        free_set, held_set = set(free), set(held)
        assert free_set <= pool_ids and held_set <= pool_ids
        assert free_set.isdisjoint(held_set)
        assert free_set.isdisjoint(down)
        down_not_free = (down & pool_ids) - free_set
        assert len(free) + len(held) + len(down_not_free) == len(pool_ids)
        assert free_set | held_set | down_not_free == pool_ids


class TestGpuConservation:
    @pytest.mark.parametrize("policy", ["fifo", "srgs", "collocation"])
    @pytest.mark.parametrize("seed", [1, 7])
    def test_every_step_conserves_gpus(self, policy, seed):
        sched = _scheduler()
        trace = synthetic_trace(30, seed=seed, arrival_rate=3.0)
        failures = inject_failures(
            sched.fleet, 3, seed=seed, window=(1.0, 15.0), mean_downtime=8.0
        )
        engine = SchedulerEngine(sched, policy)
        for job in trace:
            engine.add_job(job)
        assert engine.add_failures(failures) == 3
        _assert_conserved(engine)
        steps = 0
        while engine.queue:
            engine.step()
            _assert_conserved(engine)
            steps += 1
        assert steps == engine.queue.popped
        assert engine.free.free_ids() == list(range(sched.fleet.num_gpus))
        assert engine.free.down_ids() == []

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_random_traces_conserve_gpus(self, seed):
        sched = _scheduler()
        rng = random.Random(seed)
        trace = synthetic_trace(rng.randint(2, 20), seed=seed, arrival_rate=4.0)
        failures = inject_failures(
            sched.fleet, rng.randint(0, 3), seed=seed, window=(0.5, 10.0),
            mean_downtime=6.0,
        )
        engine = SchedulerEngine(sched, rng.choice(["fifo", "srgs", "collocation"]))
        for job in trace:
            engine.add_job(job)
        engine.add_failures(failures)
        while engine.queue:
            engine.step()
            _assert_conserved(engine)
        assert engine.free.free_ids() == list(range(sched.fleet.num_gpus))
