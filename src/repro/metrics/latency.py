"""Latency, throughput-over-time, and residency measurement."""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Dict, List, Sequence, Tuple

import numpy as np


class SampleBuffer(array):
    """Float samples in append order: a stdlib ``array('d')``, 8 B per
    sample with no per-sample objects (a list of boxed floats is ~60 B)."""

    __slots__ = ()

    def __new__(cls, values=()):
        return super().__new__(cls, "d", values)

    def to_array(self) -> np.ndarray:
        """All samples as one float64 array (copy; append order)."""
        return np.array(self, dtype=np.float64)


class LatencyRecorder:
    """Collects (completion_time, latency) samples for one operation class.

    Backs both the aggregate IOPS numbers of Fig. 5 (completions / horizon)
    and the latency comparisons in Fig. 1's narrative.  Samples live in
    float64 arrays (:class:`SampleBuffer`), not Python lists — at
    ``scale_up`` sizes the boxed-float lists dominated process memory.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self.completion_times = SampleBuffer()
        self.latencies = SampleBuffer()

    def record(self, completion_time: float, latency: float) -> None:
        if latency < 0:
            raise ValueError(f"negative latency {latency}")
        self.completion_times.append(completion_time)
        self.latencies.append(latency)

    def __len__(self) -> int:
        return len(self.latencies)

    def mean(self) -> float:
        n = len(self.latencies)
        # A left-to-right fold in append order, which every committed row
        # holds to the last bit: builtin ``sum`` changed its float algorithm
        # in CPython 3.12 and ``np.sum`` adds pairwise.
        return reduce(add, self.latencies, 0.0) / n if n else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile, q in [0, 100]."""
        return self.percentiles((q,))[0]

    def percentiles(self, qs: Sequence[float]) -> List[float]:
        """Nearest-rank percentiles for every q in ``qs``, one sort total.

        Standard nearest-rank definition: rank ``ceil(q/100 * n)`` (1-based,
        clamped to [1, n]).  ``ceil`` is deliberate — ``round`` would apply
        banker's rounding on exact .5 ranks and pick the lower neighbour
        for some sample counts but not others.
        """
        for q in qs:
            if not 0.0 <= q <= 100.0:
                raise ValueError(f"percentile {q} outside [0, 100]")
        n = len(self.latencies)
        if not n:
            return [0.0] * len(qs)
        data = np.sort(self.latencies.to_array())
        return [
            float(data[min(n - 1, max(0, math.ceil(q / 100.0 * n) - 1))])
            for q in qs
        ]

    def summary(self) -> Dict[str, float]:
        """The standard latency digest: count, mean and p50/p95/p99."""
        p50, p95, p99 = self.percentiles((50.0, 95.0, 99.0))
        return {
            "count": float(len(self.latencies)),
            "mean": self.mean(),
            "p50": p50,
            "p95": p95,
            "p99": p99,
        }

    def iops_series(self, bucket: float, horizon: float) -> "IntervalSeries":
        """Completions bucketed into fixed intervals (Fig. 6a time series)."""
        n = max(1, int(round(horizon / bucket)))
        counts = [0] * n
        for t in self.completion_times:
            i = min(n - 1, int(t / bucket))
            counts[i] += 1
        return IntervalSeries(
            times=[bucket * (i + 1) for i in range(n)],
            values=[c / bucket for c in counts],
            name=f"{self.name}.iops",
        )


def merge_windows(windows: Sequence[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Union of possibly-overlapping [start, end] intervals, sorted.

    Failure scenarios use this to turn per-OSD outage windows into the
    disjoint downtime intervals their recovery metrics integrate over.
    """
    spans = sorted((a, b) for a, b in windows if b > a)
    out: List[Tuple[float, float]] = []
    for a, b in spans:
        if out and a <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        else:
            out.append((a, b))
    return out


def window_samples(
    recorder: "LatencyRecorder", windows: Sequence[Tuple[float, float]]
) -> List[float]:
    """Latency samples whose operation overlapped any of the windows.

    An op overlaps a window if its [start, completion] span intersects it —
    e.g. reads served while an OSD was down, whatever instant they
    completed at.
    """
    out: List[float] = []
    for t, lat in zip(recorder.completion_times, recorder.latencies):
        start = t - lat
        if any(start < b and t > a for a, b in windows):
            out.append(lat)
    return out


@dataclass
class IntervalSeries:
    """A named time series sampled at interval ends."""

    times: List[float]
    values: List[float]
    name: str = ""

    def mean(self) -> float:
        return sum(self.values) / len(self.values) if self.values else 0.0


class _Phase:
    """One (layer, phase) accumulator: a running total and a sample count."""

    __slots__ = ("total", "n")

    def __init__(self) -> None:
        self.total = 0.0
        self.n = 0

    def mean_us(self) -> float:
        return 1e6 * self.total / self.n if self.n else 0.0


_UNRECORDED = _Phase()  # what a phase with no sample reads as; never added to


class _Accumulators(dict):
    """(layer, phase) -> :class:`_Phase`, each created by its first sample;
    a layer :class:`ResidencyTracker` does not know raises ``KeyError``."""

    __slots__ = ()

    def __missing__(self, key: Tuple[str, str]) -> _Phase:
        if key[0] not in ResidencyTracker.LAYERS:
            raise KeyError(key)
        acc = self[key] = _Phase()
        return acc


class ResidencyTracker:
    """Per-log-layer residency accounting (Table 2).

    Each log layer reports three phases, recorded by different actors:

    * ``append`` — entry of the append to ack-ready.  DataLog: from
      ``on_update`` entry to the instant both the local persist and every
      replica forward are done (the two overlap, so this is their max,
      not their sum).  DeltaLog / ParityLog: from handler entry to the
      message's last persist completing;
    * ``buffer`` — wait between append and recycle start (recycler);
    * ``recycle`` — per-entry processing time inside the recycler.

    There is one tracker per TSUE engine, so an accumulator is created by
    the first sample of its phase; a phase never recorded reads as zero.
    """

    LAYERS = ("data_log", "delta_log", "parity_log")
    PHASES = ("append", "buffer", "recycle")

    __slots__ = ("_acc",)

    def __init__(self) -> None:
        # Reads use ``get``: only a recorded sample creates an accumulator.
        self._acc = _Accumulators()

    def record_append(self, layer: str, seconds: float) -> None:
        acc = self._acc[layer, "append"]
        acc.total += seconds
        acc.n += 1

    def record_buffer(self, layer: str, seconds: float) -> None:
        acc = self._acc[layer, "buffer"]
        acc.total += seconds
        acc.n += 1

    def record_recycle(self, layer: str, seconds: float) -> None:
        acc = self._acc[layer, "recycle"]
        acc.total += seconds
        acc.n += 1

    def _read(self, layer: str) -> List[_Phase]:
        if layer not in self.LAYERS:
            raise KeyError(layer)
        get = self._acc.get
        return [get((layer, phase), _UNRECORDED) for phase in self.PHASES]

    def mean_us(self, layer: str) -> Tuple[float, float, float]:
        """(append, buffer, recycle) mean residency in microseconds."""
        return tuple(p.mean_us() for p in self._read(layer))

    def total_time_us(self) -> float:
        """End-to-end mean residency across the three layers, in µs."""
        return sum(sum(self.mean_us(layer)) for layer in self.LAYERS)

    def samples(self, layer: str) -> int:
        return max(p.n for p in self._read(layer))

    def merge(self, other: "ResidencyTracker") -> "ResidencyTracker":
        """Combine trackers from several OSD engines."""
        out = ResidencyTracker()
        for src in (self, other):
            for key, p in src._acc.items():
                acc = out._acc[key]
                acc.total += p.total
                acc.n += p.n
        return out
