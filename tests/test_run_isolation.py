"""Runs on one scheduler never see each other.

A :class:`~repro.sched.scheduler.ClusterScheduler` holds configuration and
caches only; each run's mutable state (registries, free pool, slot index,
failure tracking, recorder, sampler) belongs to its
:class:`~repro.sched.engine.SchedulerEngine`.  These tests interleave runs
on one scheduler — an offline ``run()`` in the middle of a live service,
two engines stepped alternately — and require every run to reproduce the
result it gets alone, and the service's ledgers, ``watch()`` stream and
gauges to hold nothing from the other run.
"""

import asyncio

from repro.obs import TimeSeriesSampler, TraceRecorder
from repro.sched import (
    ClusterScheduler,
    SchedulerEngine,
    inject_failures,
    synthetic_trace,
)
from repro.serve import SchedulerService, result_fingerprint

NUM_GPUS = 16
TRACE = synthetic_trace(40, seed=3)
SERVED = TRACE[:20]


async def _serve(sched, interleave=None):
    """Submit ``SERVED`` live, call ``interleave`` mid-run, then drain.

    Returns the service's result, its ``cluster_state()`` just before and
    just after ``interleave``, its final ``cluster_state()``, and every
    event its ``watch()`` stream delivered.
    """
    service = SchedulerService(sched, policy="collocation")
    stream = service.watch()
    for job in SERVED:
        await service.advance_to(job.arrival_time)
        await service.submit(job)
    before = service.cluster_state()
    if interleave is not None:
        interleave()
    after = service.cluster_state()
    await service.drain()
    final = service.cluster_state()
    await service.close()
    events = [event async for event in stream]
    return service.result(), before, after, final, events


class TestOfflineRunInsideLiveService:
    def test_neither_run_sees_the_other(self):
        solo_result, solo_mid, _, solo_final, solo_events = asyncio.run(
            _serve(ClusterScheduler(NUM_GPUS))
        )
        # The mid-run cut must have live state for a leak to corrupt.
        assert solo_mid["gauges"]["running_foreground"] > 0
        assert solo_mid["gauges"]["collocated_guests"] > 0
        offline_solo = {
            "collocation": ClusterScheduler(NUM_GPUS).run(TRACE, "collocation"),
            "fifo": ClusterScheduler(NUM_GPUS).run(TRACE[20:], "fifo"),
        }

        sched = ClusterScheduler(NUM_GPUS)
        offline = {}

        def run_offline():
            offline["collocation"] = sched.run(TRACE, "collocation")
            offline["fifo"] = sched.run(TRACE[20:], "fifo")

        result, before, after, final, events = asyncio.run(
            _serve(sched, interleave=run_offline)
        )
        for policy, expected in offline_solo.items():
            assert result_fingerprint(offline[policy]) == result_fingerprint(expected)
        assert result_fingerprint(result) == result_fingerprint(solo_result)
        # Gauges and tenant ledgers, mid-run and at the end, and the whole
        # watch() stream are exactly the solo service's.
        assert before == after == solo_mid
        assert final == solo_final
        assert events == solo_events

    def test_each_run_records_only_itself(self):
        sched = ClusterScheduler(NUM_GPUS)
        offline_recorder = TraceRecorder()
        sched.attach_recorder(offline_recorder)
        served_recorder = TraceRecorder()

        async def serve_around_offline_run():
            service = SchedulerService(
                sched, policy="collocation", recorder=served_recorder
            )
            for job in SERVED:
                await service.submit(job)
            sched.run(TRACE[20:], "fifo")
            await service.drain()

        asyncio.run(serve_around_offline_run())
        offline_jobs = {event.job for event in offline_recorder.events if event.job}
        assert offline_jobs == {job.name for job in TRACE[20:]}
        served_jobs = {event.job for event in served_recorder.events if event.job}
        assert served_jobs == {job.name for job in SERVED}


class TestTwoEnginesOneScheduler:
    #: (trace, policy, node failures): the runs differ in every per-run
    #: setting — policy, slot index, failure tracking.
    RUNS = [
        (TRACE[:24], "collocation", 3),
        (synthetic_trace(30, seed=11), "fifo", 0),
    ]

    @staticmethod
    def _failures(sched, count):
        return inject_failures(sched.fleet, count, seed=7, window=(5.0, 120.0))

    def _interleaved(self, sched, observers):
        """One engine per run on ``sched``, stepped alternately to the end."""
        engines = []
        for (trace, policy, failures), kwargs in zip(self.RUNS, observers):
            engine = SchedulerEngine(sched, policy, **kwargs)
            for job in trace:
                engine.add_job(job)
            engine.add_failures(self._failures(sched, failures))
            engines.append(engine)
        while any(engine.queue for engine in engines):
            for engine in engines:
                if engine.queue:
                    engine.step()
        return engines

    def test_alternate_steps_reproduce_solo_runs(self):
        solo = []
        for trace, policy, failures in self.RUNS:
            sched = ClusterScheduler(NUM_GPUS)
            solo.append(
                sched.run(trace, policy, failures=self._failures(sched, failures))
            )
        sched = ClusterScheduler(NUM_GPUS)
        engines = self._interleaved(sched, [{} for _ in self.RUNS])
        for engine, expected in zip(engines, solo):
            assert result_fingerprint(engine.result()) == result_fingerprint(expected)
            assert len(engine.free) == sched.num_gpus

    def test_observers_bind_per_engine(self):
        def observed():
            return {
                "recorder": TraceRecorder(),
                "sampler": TimeSeriesSampler(interval_s=20.0),
            }

        solo = []
        for trace, policy, failures in self.RUNS:
            sched, alone = ClusterScheduler(NUM_GPUS), observed()
            sched.attach_recorder(alone["recorder"])
            sched.attach_sampler(alone["sampler"])
            sched.run(trace, policy, failures=self._failures(sched, failures))
            solo.append((alone["recorder"].events, alone["sampler"].rows()))
        observers = [observed() for _ in self.RUNS]
        self._interleaved(ClusterScheduler(NUM_GPUS), observers)
        for kwargs, (events, rows) in zip(observers, solo):
            assert kwargs["recorder"].events == events
            assert kwargs["sampler"].rows() == rows
