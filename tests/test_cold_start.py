"""Exactness of a replay's cold start: prewarming, trace synthesis, layer costs.

Each check compares the optimized code against the per-job, per-allocation
composition it replaced, written out here as the reference:

* ``prewarm_plans`` collapses a trace to its distinct foreground shapes;
  it must seed the same plan-cache keys, in the same order, as a per-job
  scan of every (pool, job, width) request;
* ``synthetic_trace`` / ``alibaba_trace`` / ``mixed_trace`` generate each
  tenant once and sort once; their traces are pinned to literal digests;
* ``LayerProfiler._compute_layer_timing`` takes its utilization from the
  forward time it already holds, and ``KernelCostModel.kernel_time`` prices
  the per-kernel slice from plain numbers; every ``LayerTiming`` field must
  equal the scaled-workload composition's.
"""

import dataclasses
import math
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.fingerprint import trace_fingerprint
from repro.cluster.job import JobKind
from repro.core.planner.planner import BurstParallelPlanner
from repro.models.registry import available_models, build_model
from repro.profiler.gpu_spec import A100_40GB, V100_32GB
from repro.profiler.kernel_model import KernelCostModel, KernelWorkload
from repro.profiler.layer_profiler import _KERNELS_PER_OP, LayerProfiler, LayerTiming
from repro.sched import (
    ClusterFleet,
    ClusterScheduler,
    GpuPoolSpec,
    TraceJob,
    alibaba_trace,
    mixed_trace,
    synthetic_trace,
)

# ---------------------------------------------------------------------------
# prewarm_plans over distinct foreground shapes
# ---------------------------------------------------------------------------

MODELS = ("vgg11", "vgg16", "resnet50")
#: Read-only here: the stubbed search never looks inside a graph.
GRAPHS = {model: build_model(model) for model in MODELS}


def _fake_plan(self, graph, global_batch, total_gpus, amplification_limit=None):
    """A stand-in for the plan search: cheap, and names what was asked."""
    return (self.fingerprint(), graph.name, global_batch, total_gpus, amplification_limit)


def _reference_prewarm(sched, trace):
    """The per-job scan: every foreground job's every width on every pool,
    deduplicated by (model, batch, width, amp) per pool, all planned, then
    seeded where the key is new."""
    seeded = 0
    for pool_name in sched.fleet.pool_names:
        pool_gpus = sched.fleet.pool(pool_name).num_gpus
        requests, seen = [], set()
        for job in trace:
            if job.kind is not JobKind.FOREGROUND:
                continue
            cap = min(
                pool_gpus,
                job.global_batch,
                job.max_gpus if job.max_gpus is not None else pool_gpus,
            )
            top = 1 << (max(cap, 1).bit_length() - 1)
            width = 1
            while width <= top:
                request = (job.model, job.global_batch, width, job.amplification_limit)
                if request not in seen:
                    seen.add(request)
                    requests.append(request)
                width *= 2
        planner = sched._planner_for(pool_name)
        plans = [
            planner.plan(sched._graph(m), b, w, amplification_limit=a)
            for m, b, w, a in requests
        ]
        for (m, b, w, a), plan in zip(requests, plans):
            key = sched._plan_cache_key(m, b, w, a, pool_name)
            if key not in sched._plan_cache:
                sched._plan_cache[key] = plan
                seeded += 1
    return seeded


FLEETS = {
    "one-pool": lambda: ClusterFleet((GpuPoolSpec("a100", A100_40GB, 16),)),
    "a100+v100": lambda: ClusterFleet(
        (
            GpuPoolSpec("a100", A100_40GB, 8, gpus_per_host=4),
            GpuPoolSpec("v100", V100_32GB, 32, gpus_per_host=4),
        )
    ),
    # Both pools share the scheduler's planner, so their keys collide.
    "a100+a100": lambda: ClusterFleet(
        (
            GpuPoolSpec("big", A100_40GB, 32, gpus_per_host=8),
            GpuPoolSpec("small", A100_40GB, 4, gpus_per_host=2),
        )
    ),
}

_job_fields = st.tuples(
    st.sampled_from(MODELS),
    st.sampled_from((1, 3, 8, 32, 64)),
    st.sampled_from((None, 1, 2, 3, 5, 16, 64)),
    st.sampled_from((1.5, 2.0, 4.0, float("inf"))),
    st.booleans(),
)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    fields=st.lists(_job_fields, min_size=1, max_size=30),
    fleet=st.sampled_from(sorted(FLEETS)),
)
def test_prewarm_matches_per_job_scan(fields, fleet):
    trace = [
        TraceJob(
            name=f"j{i}",
            model=model,
            global_batch=batch,
            arrival_time=0.0,
            iterations=1,
            kind=JobKind.FOREGROUND if foreground else JobKind.BACKGROUND,
            amplification_limit=amp,
            max_gpus=max_gpus,
        )
        for i, (model, batch, max_gpus, amp, foreground) in enumerate(fields)
    ]
    with mock.patch.object(BurstParallelPlanner, "plan", _fake_plan):
        reference = ClusterScheduler(FLEETS[fleet]())
        change = ClusterScheduler(FLEETS[fleet]())
        for sched in (reference, change):
            sched._graph_cache.update(GRAPHS)
        expected = _reference_prewarm(reference, trace)
        seeded = change.prewarm_plans(trace)
        assert seeded == expected
        assert list(change._plan_cache.items()) == list(reference._plan_cache.items())
        assert change.prewarm_plans(trace) == 0
        assert list(change._plan_cache) == list(reference._plan_cache)


def test_prewarm_job_seeds_one_jobs_widths():
    """``prewarm_job`` is the same expansion for one job: the plans a
    one-job trace prewarms, and none for a background job."""
    job = TraceJob("fg", "vgg16", 32, 0.0, 10, max_gpus=8)
    bg = TraceJob("bg", "vgg16", 2, 0.0, 10, kind=JobKind.BACKGROUND)
    with mock.patch.object(BurstParallelPlanner, "plan", _fake_plan):
        by_trace, by_job = (ClusterScheduler(FLEETS["a100+v100"]()) for _ in range(2))
        assert by_job.prewarm_job(bg) == 0
        assert by_job.prewarm_job(job) == by_trace.prewarm_plans([job, bg]) == 8
        assert list(by_job._plan_cache.items()) == list(by_trace._plan_cache.items())
        assert by_job.prewarm_job(job) == 0


# ---------------------------------------------------------------------------
# Trace synthesis: literal digests of the traces before one-pass synthesis
# ---------------------------------------------------------------------------

TRACE_DIGESTS = [
    (synthetic_trace, dict(num_jobs=1, seed=0),
     "146de008cf570233e0504ed42f86e44547c76b52fa7815ddefd4121bb594da3c"),
    (synthetic_trace,
     dict(num_jobs=40, seed=3, arrival_rate=1.7,
          models=("vgg11", "resnet50", "inception_v3"), bg_fraction=0.5,
          fg_iterations=(10, 20), bg_iterations=(5, 9), bg_batches=(1, 16),
          amplification_limits=(1.5, 2.0, 4.0)),
     "da3cf5ed915eab78ce4e98479268359ee9275b1d13a54835c3844ab7d9bfb539"),
    (synthetic_trace,
     dict(num_jobs=1200, seed=7, bg_fraction=0.0, amplification_limits=(2.0, 3.0)),
     "b39174bf9c344d15d40ac32ce148711247f2b2b157ab55d939c3e895ab13b394"),
    (alibaba_trace, dict(num_jobs=1, seed=0),
     "b5cdf1b9d80a18e8764b88df2a18e567e651d8aa9c55ee4ddff2ca97e43e9ea1"),
    (alibaba_trace,
     dict(num_jobs=60, seed=5, mean_interarrival=0.4, models=("vgg16", "resnet101"),
          small_fraction=0.6, sigma=0.5, small_iterations=50, large_iterations=90,
          diurnal_period=13.0),
     "1f9db1406d124b15f69c91630342422fcdc6655bd27780bd0d242c888a6ad69c"),
    (alibaba_trace, dict(num_jobs=1100, seed=2, small_fraction=1.0),
     "2b083c87c36526014bb05622826e808096fa2ed7f18f6c391a7be5c4d7f83f12"),
    (mixed_trace, dict(num_jobs=2, seed=0),
     "15cf0d326bf7c7fce63461ba291e648b290227d126f7b43343271e728a9b8cf0"),
    (mixed_trace,
     dict(num_jobs=300, seed=11, synthetic_fraction=0.3, arrival_rate=1.2,
          mean_interarrival=0.9, models=("vgg16", "resnet50", "wide_resnet101_2")),
     "f6665ad71c5e9418a1bc5b0ceb8e41a855fc150643bf83acf9741711ac98fee6"),
    (mixed_trace, dict(num_jobs=2500, seed=17, synthetic_fraction=0.9),
     "f48ab0a570c5bacf9fd27d34b14fcf07d8ac59273257c4a1c92a52fec3bbad62"),
    # perfbench's replay_idle trace.
    (mixed_trace, dict(num_jobs=10000, seed=1),
     "5ac54ab8f7b507d55072873ed52418d6c882d85302ee129b3cf6ec6ee0b9d9e6"),
    # The same at the held-out benchmark seed.
    (mixed_trace, dict(num_jobs=10000, seed=4099),
     "1142d16613156162faf3a935a3ef2f3358f0942d83c0a6c739b746e97de7357b"),
]


@pytest.mark.parametrize(
    "generator, kwargs, digest",
    TRACE_DIGESTS,
    ids=[f"{g.__name__}-{kw['num_jobs']}-{kw['seed']}" for g, kw, _ in TRACE_DIGESTS],
)
def test_trace_digest_pinned(generator, kwargs, digest):
    assert trace_fingerprint(generator(**kwargs)) == digest


class TestAlibabaArguments:
    @pytest.mark.parametrize("name", ["mean_interarrival", "diurnal_period"])
    @pytest.mark.parametrize("value", [0, 0.0, -1.5, math.nan])
    def test_non_positive_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            alibaba_trace(5, **{name: value})

    @pytest.mark.parametrize("value", [0, -1.5])
    def test_mixed_trace_rejects_non_positive_interarrival(self, value):
        with pytest.raises(ValueError, match="mean_interarrival"):
            mixed_trace(10, mean_interarrival=value)

    def test_rejected_before_any_draw(self):
        with mock.patch("random.Random") as rng:
            for name in ("mean_interarrival", "diurnal_period"):
                with pytest.raises(ValueError, match=name):
                    alibaba_trace(5, **{name: 0.0})
        assert rng.call_count == 0


#: Arguments no generator can draw a valid trace from, each with the name
#: its ``ValueError`` must carry.
BAD_ARGUMENTS = [
    (synthetic_trace, dict(arrival_rate=math.nan), "arrival_rate"),
    (synthetic_trace, dict(arrival_rate=0.0), "arrival_rate"),
    (synthetic_trace, dict(models=()), "models"),
    (synthetic_trace, dict(bg_batches=()), "bg_batches"),
    (synthetic_trace, dict(amplification_limits=[]), "amplification_limits"),
    (synthetic_trace, dict(fg_iterations=(500, 499)), "fg_iterations"),
    (synthetic_trace, dict(bg_iterations=(10, 2)), "bg_iterations"),
    (alibaba_trace, dict(models=[]), "models"),
    (alibaba_trace, dict(sigma=math.nan), "sigma"),
    (alibaba_trace, dict(sigma=math.inf), "sigma"),
    (mixed_trace, dict(arrival_rate=math.nan), "arrival_rate"),
    (mixed_trace, dict(mean_interarrival=math.nan), "mean_interarrival"),
    (mixed_trace, dict(models=()), "models"),
]


class TestTraceArguments:
    """Bad generator arguments fail up front, naming the argument, where
    they used to fail mid-generation (``IndexError``) or let NaN arrival
    times through to the replay."""

    @pytest.mark.parametrize(
        "generator, kwargs, name",
        BAD_ARGUMENTS,
        ids=[f"{g.__name__}-{name}-{i}" for i, (g, _, name) in enumerate(BAD_ARGUMENTS)],
    )
    def test_rejected_before_any_draw(self, generator, kwargs, name):
        with mock.patch("random.Random") as rng:
            with pytest.raises(ValueError, match=name):
                generator(10, **kwargs)
        assert rng.call_count == 0

    def test_unused_choices_may_be_empty(self):
        """A list or range is only checked if the generator draws from it."""
        all_fg = synthetic_trace(
            20, seed=3, bg_fraction=0.0, bg_batches=(), bg_iterations=(9, 1)
        )
        assert all(job.is_foreground for job in all_fg)
        all_bg = synthetic_trace(
            20, seed=3, bg_fraction=1.0, amplification_limits=(), fg_iterations=(9, 1)
        )
        assert not any(job.is_foreground for job in all_bg)

    @pytest.mark.parametrize("arrival", [math.nan, math.inf, -1.0])
    def test_trace_job_rejects_bad_arrival(self, arrival):
        with pytest.raises(ValueError, match="job 'j7': arrival_time"):
            TraceJob("j7", "vgg16", 8, arrival, 10)

    def test_trace_job_accepts_zero_arrival(self):
        assert TraceJob("j", "vgg16", 8, 0.0, 10).arrival_time == 0.0


# ---------------------------------------------------------------------------
# Layer timings: the scaled-workload composition, written out
# ---------------------------------------------------------------------------


def _reference_kernel_time(gpu, workload, num_kernels):
    """Kernel time over a ``KernelWorkload.scaled`` slice (occupancy and
    memory efficiency of the slice as separate workload reads)."""
    slice_ = workload.scaled(1.0 / num_kernels)
    blocks = max(1, math.ceil(slice_.parallel_elems / 4096))
    full_waves, remainder = divmod(blocks, gpu.wave_size)
    if full_waves == 0:
        occupancy = blocks / gpu.wave_size
    else:
        occupancy = blocks / ((full_waves + (1 if remainder else 0)) * gpu.wave_size)
    if slice_.bytes_moved <= 0:
        mem_eff = 1.0
    else:
        mem_eff = min(1.0, max(1, math.ceil(slice_.bytes_moved / (128 * 1024))) / 32)
    compute_time = workload.flops / (gpu.peak_flops * max(occupancy, 1e-12))
    memory_time = workload.bytes_moved / (gpu.memory_bandwidth * max(mem_eff, 1e-12))
    return num_kernels * gpu.kernel_fixed_overhead + max(compute_time, memory_time)


def _reference_timing(profiler, spec, batch):
    gpu = profiler.gpu
    fwd_kernels, bwd_kernels = _KERNELS_PER_OP.get(spec.op, (1, 1))
    if fwd_kernels == 0 and bwd_kernels == 0:
        return LayerTiming(spec.name, spec.op, batch, 0.0, 0.0, 0, 0, 0.0, 1.0)
    dtype = profiler.dtype_bytes
    fwd = KernelWorkload(
        flops=spec.flops_per_sample * batch,
        bytes_moved=(
            (spec.input_elems_per_sample + spec.output_elems_per_sample) * batch
            + spec.params
        ) * dtype,
        parallel_elems=max(spec.output_elems_per_sample, 1) * batch,
    )
    bwd = KernelWorkload(
        flops=spec.flops_per_sample * spec.bwd_flops_multiplier * batch,
        bytes_moved=(
            (2 * spec.input_elems_per_sample + spec.output_elems_per_sample) * batch
            + 2 * spec.params
        ) * dtype,
        parallel_elems=max(spec.input_elems_per_sample, 1) * batch,
    )
    has_bwd = spec.bwd_flops_multiplier > 0
    fwd_time = _reference_kernel_time(gpu, fwd, fwd_kernels)
    bwd_time = _reference_kernel_time(gpu, bwd, bwd_kernels) if has_bwd else 0.0
    launch = gpu.graph_launch_overhead if profiler.use_cuda_graphs else gpu.kernel_launch_overhead
    # achieved_utilization recomputed the forward kernel time.
    t = _reference_kernel_time(gpu, fwd, fwd_kernels)
    ideal = max(fwd.flops / gpu.peak_flops, fwd.bytes_moved / gpu.memory_bandwidth)
    utilization = 1.0 if t <= 0 else (0.0 if ideal <= 0 else min(1.0, ideal / t))
    return LayerTiming(
        layer_name=spec.name,
        op=spec.op,
        batch=batch,
        forward_time=fwd_time,
        backward_time=bwd_time,
        forward_kernels=fwd_kernels,
        backward_kernels=bwd_kernels if has_bwd else 0,
        host_launch_time=launch * (fwd_kernels + (bwd_kernels if has_bwd else 0)),
        utilization=utilization,
    )


def _registry_layers():
    """Every registry layer's spec, one per cost shape (the name is only
    copied into ``layer_name``), plus every layer at a few batches."""
    by_shape, every = {}, []
    for model in available_models():
        graph = build_model(model)
        for lid in graph.layer_ids():
            spec = graph.spec(lid)
            every.append(spec)
            by_shape.setdefault(dataclasses.replace(spec, name=""), spec)
    return list(by_shape.values()), every


def test_reference_uses_the_models_constants():
    model = KernelCostModel()
    assert (model.elems_per_block, model.bytes_per_block, model.mem_saturation_blocks) == (
        4096, 128 * 1024, 32,
    )


@pytest.mark.parametrize("gpu", [A100_40GB, V100_32GB], ids=lambda g: g.name)
@pytest.mark.parametrize("cuda_graphs", [True, False], ids=["graphs", "eager"])
def test_layer_timing_matches_scaled_workload_composition(gpu, cuda_graphs):
    profiler = LayerProfiler(gpu=gpu, use_cuda_graphs=cuda_graphs, enable_cache=False)
    shapes, every = _registry_layers()
    cases = [(spec, batch) for spec in shapes for batch in range(1, 257)]
    cases += [(spec, batch) for spec in every for batch in (1, 5, 64, 256)]
    for spec, batch in cases:
        got = profiler._compute_layer_timing(spec, batch)
        want = _reference_timing(profiler, spec, batch)
        for field in dataclasses.fields(LayerTiming):
            assert getattr(got, field.name) == getattr(want, field.name), (
                spec.name, batch, field.name,
            )


def test_kernel_time_matches_scaled_slice_on_edge_workloads():
    model = KernelCostModel(V100_32GB)
    for flops, moved, elems in [
        (0.0, 0.0, 0.0),
        (1.0, 0.0, 1.0),
        (0.0, 3.0, 4096.0 * 80),
        (1e12, 1e9, 4096.0 * 80 * 3 + 7),
        (5e6, 128 * 1024 * 31.0, 4095.0),
    ]:
        workload = KernelWorkload(flops, moved, elems)
        for kernels in (1, 2, 3, 7):
            assert model.kernel_time(workload, kernels) == _reference_kernel_time(
                V100_32GB, workload, kernels
            )
