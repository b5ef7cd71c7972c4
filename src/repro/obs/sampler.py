"""Time-series sampling of cluster gauges at fixed sim-time intervals.

The trace recorder (:mod:`repro.obs.trace`) captures *events*; this module
captures *levels*: how deep was the pending queue, how many GPUs were free
per pool, how utilized was the fleet — sampled on a fixed simulated-time
grid so two runs of the same trace produce the same rows regardless of how
many events fell between samples.

The run's engine drives the sampler from its event loop: before processing
an event at sim time ``t`` it calls :meth:`TimeSeriesSampler.advance_to` with a
gauge callback.  The sampler decides whether any grid boundaries were
crossed since the last call; only then does it invoke the callback (once)
and replicate the reading onto every crossed boundary.  Between boundaries
the cluster state is piecewise-constant — nothing changes except at events
— so carrying the last reading forward is exact, not an approximation.

Storage is columnar (one list per gauge) to stay compact over multi-day
simulations, and :meth:`TimeSeriesSampler.summary` reduces each column to
min/mean/max/last for quick digests and bench ``info`` blocks.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Mapping, Sequence, Union

__all__ = ["TimeSeriesSampler"]

Number = Union[int, float]


class TimeSeriesSampler:
    """Records cluster gauges on a fixed simulated-time grid.

    Parameters
    ----------
    interval_s:
        Grid spacing in simulated seconds (must be positive).
    start_time:
        Simulated time of the first sample boundary.
    """

    def __init__(self, interval_s: float = 10.0, start_time: float = 0.0) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.interval_s = float(interval_s)
        self.start_time = float(start_time)
        self._times: List[float] = []
        self._columns: Dict[str, List[Number]] = {}
        self._next_boundary = self.start_time

    # --------------------------------------------------------------- sampling
    def begin_run(self) -> None:
        """Clear all rows for a new run (grid parameters are kept)."""
        self._times = []
        self._columns = {}
        self._next_boundary = self.start_time

    def advance_to(
        self, now: float, gauges: Callable[[], Mapping[str, Number]]
    ) -> int:
        """Record every grid boundary at or before sim time ``now``.

        ``gauges`` is only called when at least one boundary was crossed, and
        at most once per call — its reading is replicated across all crossed
        boundaries, which is exact because the simulated cluster state only
        changes at events.  Returns the number of rows appended.
        """
        if now < self._next_boundary:
            return 0
        reading = dict(gauges())
        appended = 0
        boundary = self._next_boundary
        while boundary <= now:
            self._append_row(boundary, reading)
            appended += 1
            boundary = self.start_time + (len(self._times)) * self.interval_s
            # Guard against float stagnation on huge times: force progress.
            if boundary <= self._times[-1]:
                boundary = math.nextafter(self._times[-1], math.inf)
        self._next_boundary = boundary
        return appended

    def _append_row(self, time_s: float, reading: Mapping[str, Number]) -> None:
        n = len(self._times)
        self._times.append(time_s)
        for key, value in reading.items():
            col = self._columns.get(key)
            if col is None:
                # A gauge appearing mid-run backfills zeros for earlier rows.
                col = [0] * n
                self._columns[key] = col
            col.append(value)
        for key, col in self._columns.items():
            if len(col) <= n:  # gauge missing from this reading
                col.append(col[-1] if col else 0)

    # ---------------------------------------------------------------- reading
    @property
    def num_samples(self) -> int:
        return len(self._times)

    @property
    def times(self) -> Sequence[float]:
        return tuple(self._times)

    @property
    def gauge_names(self) -> List[str]:
        return sorted(self._columns)

    def column(self, name: str) -> Sequence[Number]:
        """All samples of one gauge, aligned with :attr:`times`."""
        return tuple(self._columns[name])

    def rows(self) -> List[Dict[str, Number]]:
        """The samples as a list of dicts (``time`` plus every gauge)."""
        names = self.gauge_names
        return [
            {"time": t, **{name: self._columns[name][i] for name in names}}
            for i, t in enumerate(self._times)
        ]

    def to_dict(self) -> Dict[str, Sequence[Number]]:
        """Columnar view: ``{"time": [...], gauge: [...], ...}``."""
        out: Dict[str, Sequence[Number]] = {"time": tuple(self._times)}
        for name in self.gauge_names:
            out[name] = tuple(self._columns[name])
        return out

    def summary(self) -> Dict[str, Union[int, float, Dict[str, float]]]:
        """Reduce each gauge column to min / mean / max / last.

        Returns ``{"num_samples": ..., "interval_s": ..., <gauge>: {...}}``;
        gauge entries are absent when no samples were recorded.
        """
        out: Dict[str, Union[int, float, Dict[str, float]]] = {
            "num_samples": len(self._times),
            "interval_s": self.interval_s,
        }
        if not self._times:
            return out
        for name in self.gauge_names:
            col = self._columns[name]
            out[name] = {
                "min": float(min(col)),
                "mean": float(sum(col)) / len(col),
                "max": float(max(col)),
                "last": float(col[-1]),
            }
        return out
