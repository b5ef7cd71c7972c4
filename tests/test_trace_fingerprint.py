"""``trace_fingerprint`` is byte-identical to the per-job dict encoding.

The columnar encoder must hash exactly the bytes of ``fingerprint("trace",
rows)``, the encoding it replaced, kept here as the oracle: one dict per job,
sort-encoded by :func:`canonical_json`.  The traces below aim at what the
columnar path does differently: names that JSON must escape (and that
contain commas), values that are equal but encode differently (``2`` and
``2.0``, ``1`` and ``True``, ``0.0`` and ``-0.0``), columns whose values
contain commas, block boundaries, and the empty trace.
"""

import importlib
import math
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.fingerprint import fingerprint, trace_fingerprint
from repro.cluster.job import JobKind
from repro.sched import TraceJob, mixed_trace

# The module, which the package's ``fingerprint`` function shadows.
fp = importlib.import_module("repro.cache.fingerprint")


def _reference(trace):
    """The per-job dict encoding."""
    return fingerprint(
        "trace",
        [
            {
                "name": job.name,
                "model": job.model,
                "global_batch": job.global_batch,
                "arrival_time": job.arrival_time,
                "iterations": job.iterations,
                "kind": job.kind.value,
                "amplification_limit": job.amplification_limit,
                "max_gpus": job.max_gpus,
            }
            for job in trace
        ],
    )


def _both(trace):
    """The columnar digest at the default block size and at a block of 3
    jobs (so short traces cross block boundaries too), checked equal."""
    digest = trace_fingerprint(trace)
    with mock.patch.object(fp, "_TRACE_BLOCK", 3):
        assert trace_fingerprint(trace) == digest
    return digest


AWKWARD_NAMES = ("", ",", '"', "\\", '",', '","', "a,b", "\\,", "é漢字", "\x00\n", "\U0001f600")

_names = st.one_of(st.sampled_from(AWKWARD_NAMES), st.text(max_size=8))
_jobs = st.builds(
    TraceJob,
    name=_names,
    model=st.one_of(st.sampled_from(("vgg16", "resnet50", "a,b", '"')), st.text(max_size=4)),
    global_batch=st.one_of(st.sampled_from((1, True, 8)), st.integers(1, 10**20)),
    arrival_time=st.one_of(
        st.sampled_from((0, 0.0, -0.0, 5, 5.0, 5e-324, 1e22)),
        st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
        st.integers(0, 10**6),
    ),
    iterations=st.one_of(st.sampled_from((1, True)), st.integers(1, 10**6)),
    kind=st.sampled_from(JobKind),
    amplification_limit=st.one_of(
        st.sampled_from((2, 2.0, True, 0.0, -0.0, 1e16, 1.5e300)),
        st.floats(allow_nan=False, allow_infinity=False),
    ),
    max_gpus=st.one_of(st.none(), st.sampled_from((1, True, 8)), st.integers(1, 64)),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(trace=st.lists(_jobs, max_size=12))
def test_matches_per_job_encoding(trace):
    assert _both(trace) == _reference(trace)


@pytest.mark.parametrize("name", AWKWARD_NAMES)
def test_awkward_names(name):
    trace = [
        TraceJob(name, "vgg16", 8, 1.0, 10),
        TraceJob(name + name, "resnet50", 4, 2.0, 20, JobKind.BACKGROUND),
    ]
    assert _both(trace) == _reference(trace)


def test_equal_values_that_encode_differently():
    """A memo keyed by value would serve ``2``'s text for ``2.0`` (or the
    reverse); each job must keep its own encoding."""
    trace = [
        TraceJob(f"j{i}", "vgg16", batch, arrival, 10,
                 amplification_limit=amp, max_gpus=max_gpus)
        for i, (batch, arrival, amp, max_gpus) in enumerate([
            (2, 5, 2, None),
            (2, 5.0, 2.0, 4),
            (True, 5, True, None),
            (1, 0.0, 0.0, 1),
            (1, -0.0, -0.0, True),
            (2, 5.0, 2, 2),
            (2, 5, 2.0, None),
        ])
    ]
    assert _both(trace) == _reference(trace)
    # The same jobs with 2 and 2.0 swapped are a different trace.
    swapped = [
        replace(trace[0], amplification_limit=2.0),
        replace(trace[1], amplification_limit=2),
    ]
    assert _both(swapped) == _reference(swapped) != _both(trace[:2])


def test_empty_trace():
    assert _both([]) == _reference([]) == fingerprint("trace", [])


def test_any_iterable():
    trace = mixed_trace(40, seed=3)
    assert trace_fingerprint(iter(trace)) == trace_fingerprint(tuple(trace)) == _reference(trace)


def test_columns_whose_values_contain_commas():
    """Values a numeric column does not expect (a string or list with a
    comma in it) are encoded one by one, still to the same bytes."""
    base = dict(model="vgg16", kind=JobKind.FOREGROUND, iterations=3, max_gpus=None)
    trace = [
        SimpleNamespace(name="a", global_batch=1, arrival_time=0.5,
                        amplification_limit="2,0", **base),
        SimpleNamespace(name="b", global_batch=[1, 2], arrival_time=1.5,
                        amplification_limit=[2, 3], **base),
        SimpleNamespace(name="c", global_batch=4, arrival_time=2.5,
                        amplification_limit={"x": 1, "y": 2}, **base),
    ]
    assert _both(trace) == _reference(trace)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("field", ["amplification_limit", "arrival_time", "max_gpus"])
def test_non_finite_values_raise_on_both_paths(field, value):
    # A stand-in job: TraceJob itself rejects a non-finite arrival time.
    row = dict(name="x", model="vgg16", global_batch=8, arrival_time=1.0,
               iterations=3, kind=JobKind.FOREGROUND, amplification_limit=2.0,
               max_gpus=None)
    row[field] = value
    trace = [SimpleNamespace(**row)] + mixed_trace(6, seed=1)
    with pytest.raises(ValueError):
        _reference(trace)
    with pytest.raises(ValueError):
        trace_fingerprint(trace)
