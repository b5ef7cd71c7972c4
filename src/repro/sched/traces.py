"""Job-arrival traces for the multi-tenant cluster scheduler.

Three generators are provided, all fully deterministic under a seed:

* :func:`synthetic_trace` — Poisson arrivals over the evaluation model zoo,
  with a configurable share of single-GPU background jobs.  This is the
  workload the policy-comparison benchmark runs.
* :func:`alibaba_trace` — an Alibaba-PAI-style workload: the vast majority
  of jobs are small (short, narrow, mostly background/best-effort) while a
  small head of large foreground jobs dominates GPU demand, with log-normal
  job sizes and a diurnal arrival-rate modulation.
* :func:`mixed_trace` — both of the above interleaved on one timeline: the
  steady Poisson tenant mix sharing the cluster with the heavy-tailed
  diurnal tenant, which is the workload the cluster-scale ``sched_sim_xl``
  benchmark replays.

Neither generator needs the real cluster traces; they reproduce the shape
(arrival process, size skew, foreground/background mix) that the scheduling
policies are sensitive to.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

from ..cluster.job import JobKind, TrainingJob
from ..models.graph import ModelGraph

__all__ = ["TraceJob", "synthetic_trace", "alibaba_trace", "mixed_trace"]


@dataclass(frozen=True)
class TraceJob:
    """One job of an arrival trace.

    Attributes
    ----------
    name:
        Unique job name within the trace.
    model:
        Registry name of the model to train (see ``repro.models.registry``).
    global_batch:
        Global batch size (for background jobs: the single-GPU batch).
    arrival_time:
        Submission time in simulated seconds.
    iterations:
        Training-iteration budget; the job completes after this many
        iterations.
    kind:
        Foreground (distributed, planner-scheduled) or background
        (single-GPU, best-effort).
    amplification_limit:
        Inefficiency tolerance handed to the burst-parallel planner
        (foreground jobs only).
    max_gpus:
        Optional cap on the job's GPU width (defaults to the cluster size).
    """

    name: str
    model: str
    global_batch: int
    arrival_time: float
    iterations: int
    kind: JobKind = JobKind.FOREGROUND
    amplification_limit: float = 2.0
    max_gpus: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0 <= self.arrival_time < math.inf:
            raise ValueError(
                f"job {self.name!r}: arrival_time must be finite and >= 0, "
                f"got {self.arrival_time!r}"
            )
        if self.iterations < 1:
            raise ValueError(f"job {self.name!r}: iterations must be positive")
        if self.global_batch < 1:
            raise ValueError(f"job {self.name!r}: global_batch must be positive")
        if self.max_gpus is not None and self.max_gpus < 1:
            raise ValueError(f"job {self.name!r}: max_gpus must be positive")

    @property
    def is_foreground(self) -> bool:
        return self.kind is JobKind.FOREGROUND

    def with_arrival(
        self, arrival_time: float, name: Optional[str] = None
    ) -> "TraceJob":
        """Copy of this job submitted at a different time.

        Pass ``name`` when the copy coexists with the original in one run —
        a service resubmission reusing the old name would be rejected at
        submit (job names index live state), and silently reusing the old
        arrival for ordering would jump the queue.  See :meth:`resubmitted`.
        """
        if name is not None:
            return replace(self, arrival_time=arrival_time, name=name)
        return replace(self, arrival_time=arrival_time)

    def resubmitted(self, arrival_time: float, attempt: int = 1) -> "TraceJob":
        """Copy for cancel-then-resubmit through the service API.

        The copy is renamed ``<name>#<attempt>`` (fresh identity, so
        duplicate-name rejection never trips on the cancelled original) and
        re-stamped with the new ``arrival_time`` (fresh queue position, so
        the stale arrival can't leapfrog jobs submitted in between).
        """
        if attempt < 1:
            raise ValueError("attempt must be >= 1")
        base, _, _ = self.name.partition("#")
        return replace(
            self, arrival_time=arrival_time, name=f"{base}#{attempt}"
        )

    def to_training_job(self, graph: ModelGraph) -> TrainingJob:
        """The cluster-layer job description for this trace entry."""
        return TrainingJob(
            name=self.name,
            graph=graph,
            global_batch=self.global_batch,
            kind=self.kind,
            amplification_limit=(
                self.amplification_limit if self.is_foreground else None
            ),
        )


def _sorted_and_named(jobs: List[TraceJob]) -> List[TraceJob]:
    """Sort a trace by ``(arrival_time, name)``.

    Names are unique within a trace, so the key is a total order: the result
    does not depend on the order the jobs were generated in.
    """
    return sorted(jobs, key=attrgetter("arrival_time", "name"))


def _default_batches(models: List[str]) -> Dict[str, int]:
    """Each model's default global batch, for foreground jobs."""
    from ..models.registry import model_entry  # deferred: registry builds lazily

    return {model: model_entry(model).default_global_batch for model in models}


def _check_positive(name: str, value: float) -> None:
    """Reject a rate or a period that is not positive (NaN included)."""
    if not value > 0:
        raise ValueError(f"{name} must be positive")


def _check_drawn(name: str, values: Sequence, drawn: bool = True) -> None:
    """Reject an empty list of choices that the generator would draw from."""
    if drawn and not values:
        raise ValueError(f"{name} must not be empty")


def _check_range(
    name: str, bounds: Tuple[int, int], drawn: bool
) -> Tuple[int, int]:
    """``(lo, hi)``, rejected if inverted and the generator would draw
    from it."""
    lo, hi = bounds
    if drawn and not lo <= hi:
        raise ValueError(f"{name} must be an increasing (lo, hi) range, got {bounds}")
    return lo, hi


def _synthetic_jobs(
    num_jobs: int,
    seed: int,
    arrival_rate: float,
    models: Sequence[str],
    bg_fraction: float,
    fg_iterations: Tuple[int, int],
    bg_iterations: Tuple[int, int],
    bg_batches: Sequence[int],
    amplification_limits: Sequence[float],
    prefix: str,
) -> List[TraceJob]:
    """:func:`synthetic_trace`'s jobs in generation order, names prefixed.

    Every argument is checked before the RNG is built.  A list of choices
    or an iteration range only has to be usable if it can be drawn from:
    ``bg_fraction == 0`` draws no background job, and ``bg_fraction == 1``
    no foreground one.
    """
    if num_jobs < 1:
        raise ValueError("num_jobs must be positive")
    if not (0.0 <= bg_fraction <= 1.0):
        raise ValueError("bg_fraction must be in [0, 1]")
    _check_positive("arrival_rate", arrival_rate)
    models = list(models)
    bg_batches = list(bg_batches)
    amplification_limits = list(amplification_limits)
    has_bg, has_fg = bg_fraction > 0.0, bg_fraction < 1.0
    _check_drawn("models", models)
    _check_drawn("bg_batches", bg_batches, has_bg)
    _check_drawn("amplification_limits", amplification_limits, has_fg)
    fg_lo, fg_hi = _check_range("fg_iterations", fg_iterations, has_fg)
    bg_lo, bg_hi = _check_range("bg_iterations", bg_iterations, has_bg)
    default_batches = _default_batches(models)

    rng = random.Random(seed)
    expovariate, choice, uniform, randint = (
        rng.expovariate, rng.choice, rng.random, rng.randint
    )
    background, foreground = JobKind.BACKGROUND, JobKind.FOREGROUND
    jobs: List[TraceJob] = []
    append = jobs.append
    clock = 0.0
    # Draw order per job: gap, model, kind, then batch and iterations (a
    # background job) or iterations and amplification limit (foreground).
    for i in range(num_jobs):
        clock += expovariate(arrival_rate)
        model = choice(models)
        if uniform() < bg_fraction:
            append(TraceJob(
                f"{prefix}bg-{i:03d}", model, choice(bg_batches), clock,
                randint(bg_lo, bg_hi), background,
            ))
        else:
            append(TraceJob(
                f"{prefix}fg-{i:03d}", model, default_batches[model], clock,
                randint(fg_lo, fg_hi), foreground, choice(amplification_limits),
            ))
    return jobs


def synthetic_trace(
    num_jobs: int,
    seed: int = 0,
    arrival_rate: float = 0.8,
    models: Sequence[str] = ("vgg16", "resnet50"),
    bg_fraction: float = 0.35,
    fg_iterations: Tuple[int, int] = (300, 1500),
    bg_iterations: Tuple[int, int] = (500, 3000),
    bg_batches: Sequence[int] = (2, 4, 8),
    amplification_limits: Sequence[float] = (2.0,),
) -> List[TraceJob]:
    """Poisson-arrival synthetic trace over the evaluation model zoo.

    Interarrival gaps are exponential with rate ``arrival_rate`` (jobs per
    second); each job is background with probability ``bg_fraction``,
    otherwise a foreground job with an iteration budget drawn uniformly from
    ``fg_iterations``.  Identical seeds produce identical traces.
    ``arrival_rate`` must be positive, ``models`` non-empty, and the choices
    and ``(lo, hi)`` ranges of each kind of job that can be drawn non-empty
    and increasing.
    """
    return _sorted_and_named(
        _synthetic_jobs(
            num_jobs, seed, arrival_rate, models, bg_fraction, fg_iterations,
            bg_iterations, bg_batches, amplification_limits, prefix="",
        )
    )


def _alibaba_jobs(
    num_jobs: int,
    seed: int,
    mean_interarrival: float,
    models: Sequence[str],
    small_fraction: float,
    sigma: float,
    small_iterations: int,
    large_iterations: int,
    diurnal_period: float,
    prefix: str,
) -> List[TraceJob]:
    """:func:`alibaba_trace`'s jobs in generation order, names prefixed."""
    if num_jobs < 1:
        raise ValueError("num_jobs must be positive")
    if not (0.0 <= small_fraction <= 1.0):
        raise ValueError("small_fraction must be in [0, 1]")
    _check_positive("mean_interarrival", mean_interarrival)
    _check_positive("diurnal_period", diurnal_period)
    if not math.isfinite(sigma):
        raise ValueError("sigma must be finite")
    models = list(models)
    _check_drawn("models", models)
    default_batches = _default_batches(models)

    rng = random.Random(seed)
    expovariate, choice, uniform, lognormvariate = (
        rng.expovariate, rng.choice, rng.random, rng.lognormvariate
    )
    sin, two_pi = math.sin, 2.0 * math.pi
    small_batches = (2, 4)
    background, foreground = JobKind.BACKGROUND, JobKind.FOREGROUND
    jobs: List[TraceJob] = []
    append = jobs.append
    clock = 0.0
    for i in range(num_jobs):
        # Day/night modulation: gaps stretch up to ~2x in the trough.
        modulation = 1.5 - 0.5 * sin(two_pi * clock / diurnal_period)
        clock += expovariate(1.0 / (mean_interarrival * modulation))
        model = choice(models)
        if uniform() < small_fraction:
            iterations = max(1, int(small_iterations * lognormvariate(0.0, sigma)))
            append(TraceJob(
                f"{prefix}small-{i:03d}", model, choice(small_batches), clock,
                iterations, background,
            ))
        else:
            iterations = max(1, int(large_iterations * lognormvariate(0.0, sigma)))
            append(TraceJob(
                f"{prefix}large-{i:03d}", model, default_batches[model], clock,
                iterations, foreground, 2.0,
            ))
    return jobs


def alibaba_trace(
    num_jobs: int,
    seed: int = 0,
    mean_interarrival: float = 1.5,
    models: Sequence[str] = ("vgg16", "resnet50"),
    small_fraction: float = 0.8,
    sigma: float = 1.0,
    small_iterations: int = 400,
    large_iterations: int = 1200,
    diurnal_period: float = 60.0,
) -> List[TraceJob]:
    """Alibaba-PAI-style heavy-tailed trace.

    Mirrors the published cluster-trace shape rather than the raw data:
    ~``small_fraction`` of jobs are small single-GPU best-effort jobs while a
    small head of wide foreground jobs carries most of the GPU demand;
    iteration budgets are log-normal (heavy tail), and the arrival rate is
    modulated by a deterministic diurnal wave of period ``diurnal_period``
    simulated seconds.  ``mean_interarrival`` and ``diurnal_period`` must be
    positive, ``sigma`` finite and ``models`` non-empty.
    """
    return _sorted_and_named(
        _alibaba_jobs(
            num_jobs, seed, mean_interarrival, models, small_fraction, sigma,
            small_iterations, large_iterations, diurnal_period, prefix="",
        )
    )


def mixed_trace(
    num_jobs: int,
    seed: int = 0,
    synthetic_fraction: float = 0.5,
    arrival_rate: float = 0.8,
    mean_interarrival: float = 1.5,
    models: Sequence[str] = ("vgg16", "resnet50"),
) -> List[TraceJob]:
    """Synthetic and Alibaba-style tenants interleaved on one timeline.

    ``synthetic_fraction`` of the jobs come from :func:`synthetic_trace`'s
    generator (steady Poisson mix, seeded ``seed``) and the rest from
    :func:`alibaba_trace`'s (heavy-tailed, diurnal, seeded ``seed + 1``),
    with their default shapes.  Each tenant's jobs are generated once with
    their names already prefixed (``syn-`` / ``ali-``, so the merged trace
    keeps unique names), and the merge is sorted once by
    ``(arrival_time, name)``: the same trace as sorting each tenant, renaming
    and re-sorting.  This is the cluster-scale workload ``sched_sim_xl``
    replays: neither tenant alone exercises both a deep steady queue and
    bursty wide jobs.
    """
    if num_jobs < 2:
        raise ValueError("mixed_trace needs at least 2 jobs (one per tenant)")
    if not (0.0 < synthetic_fraction < 1.0):
        raise ValueError("synthetic_fraction must be strictly between 0 and 1")
    # Both tenants' rates are checked before either tenant draws.
    _check_positive("arrival_rate", arrival_rate)
    _check_positive("mean_interarrival", mean_interarrival)
    num_synthetic = max(1, min(num_jobs - 1, round(num_jobs * synthetic_fraction)))
    jobs = _synthetic_jobs(
        num_synthetic, seed, arrival_rate, models, bg_fraction=0.35,
        fg_iterations=(300, 1500), bg_iterations=(500, 3000),
        bg_batches=(2, 4, 8), amplification_limits=(2.0,), prefix="syn-",
    )
    jobs += _alibaba_jobs(
        num_jobs - num_synthetic, seed + 1, mean_interarrival, models,
        small_fraction=0.8, sigma=1.0, small_iterations=400,
        large_iterations=1200, diurnal_period=60.0, prefix="ali-",
    )
    return _sorted_and_named(jobs)
