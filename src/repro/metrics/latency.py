"""Latency, throughput-over-time, and residency measurement."""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

_CHUNK = 4096
# Capacity of a buffer's first allocation.  A power of two dividing
# ``_CHUNK``, so doubling lands on ``_CHUNK`` exactly.
_FIRST = 16


class SampleBuffer:
    """Append-only float sample storage in numpy chunks.

    A drop-in replacement for the plain Python list the recorders used to
    keep: supports ``append``/``extend``/``len``/iteration/truthiness and
    indexing.  At `scale_up` sizes the list of boxed floats dominated
    memory (~60 B per sample); chunked float64 storage is 8 B per sample
    with no per-sample objects retained.

    Footprint follows use: an empty buffer owns no array, the *first*
    chunk starts at ``_FIRST`` cells and doubles (copying) up to
    ``_CHUNK``, and every later chunk is allocated full-size — at
    `scale_out` sizes thousands of recorders hold a handful of samples
    each.  Only the last chunk is ever short, so length and indexing stay
    ``_CHUNK`` arithmetic.

    Exactness: samples are Python floats (IEEE doubles) and float64 cells
    hold them losslessly, so sums/sorts over the buffer reproduce the
    list-based results bit for bit (sequential summation preserved by
    :meth:`running_sum` walking elements in append order).
    """

    __slots__ = ("_chunks", "_tail", "_fill", "_cap")

    def __init__(self) -> None:
        self._chunks: List[np.ndarray] = []
        self._tail: Optional[np.ndarray] = None
        self._fill = 0  # filled cells of the tail chunk
        self._cap = 0  # len(self._tail)

    def _reserve(self, want: int) -> None:
        """Leave the tail chunk a free cell — ``want`` of them where a short
        first chunk can grow to that."""
        fill, cap = self._fill, self._cap
        if cap == _CHUNK:
            if fill == _CHUNK:
                self._tail = np.empty(_CHUNK, dtype=np.float64)
                self._chunks.append(self._tail)
                self._fill = 0
            return
        if fill + want <= cap:
            return
        cap = cap or _FIRST
        while cap < fill + want and cap < _CHUNK:
            cap *= 2
        grown = np.empty(cap, dtype=np.float64)
        if fill:
            grown[:fill] = self._tail[:fill]
        self._chunks[-1:] = [grown]  # replaces the short chunk, if any
        self._tail = grown
        self._cap = cap

    def append(self, value: float) -> None:
        if self._fill == self._cap:
            self._reserve(1)
        self._tail[self._fill] = value
        self._fill += 1

    def extend(self, values) -> None:
        if isinstance(values, SampleBuffer):
            # Bulk chunk copy (aggregation across recorders at scale).
            chunks = values._chunks
            for i, chunk in enumerate(chunks):
                n = values._fill if i == len(chunks) - 1 else _CHUNK
                self._extend_array(chunk[:n])
            return
        for v in values:
            self.append(v)

    def _extend_array(self, arr: np.ndarray) -> None:
        pos = 0
        n = len(arr)
        while pos < n:
            self._reserve(n - pos)
            take = min(self._cap - self._fill, n - pos)
            self._tail[self._fill : self._fill + take] = arr[pos : pos + take]
            self._fill += take
            pos += take

    def __len__(self) -> int:
        if self._tail is None:
            return 0
        return (len(self._chunks) - 1) * _CHUNK + self._fill

    def __bool__(self) -> bool:
        return self._tail is not None and (len(self._chunks) > 1 or self._fill > 0)

    def __iter__(self) -> Iterator[float]:
        chunks = self._chunks
        for i, chunk in enumerate(chunks):
            n = self._fill if i == len(chunks) - 1 else _CHUNK
            for v in chunk[:n].tolist():
                yield v

    def __getitem__(self, i: int):
        n = len(self)
        if isinstance(i, slice):
            return self.to_array()[i]
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(i)
        return float(self._chunks[i // _CHUNK][i % _CHUNK])

    def to_array(self) -> np.ndarray:
        """All samples as one float64 array (copy; append order)."""
        if self._tail is None:
            return np.empty(0, dtype=np.float64)
        parts = self._chunks[:-1] + [self._tail[: self._fill]]
        return np.concatenate(parts) if len(parts) > 1 else parts[0].copy()

    def running_sum(self) -> float:
        """Sequential left-to-right sum — bit-identical to ``sum(list)``."""
        total = 0.0
        chunks = self._chunks
        for i, chunk in enumerate(chunks):
            n = self._fill if i == len(chunks) - 1 else _CHUNK
            for v in chunk[:n].tolist():
                total += v
        return total

    def max(self) -> float:
        if not self:
            raise ValueError("max of empty buffer")
        best = None
        chunks = self._chunks
        for i, chunk in enumerate(chunks):
            n = self._fill if i == len(chunks) - 1 else _CHUNK
            m = float(chunk[:n].max()) if n else None
            if m is not None and (best is None or m > best):
                best = m
        return best


class LatencyRecorder:
    """Collects (completion_time, latency) samples for one operation class.

    Backs both the aggregate IOPS numbers of Fig. 5 (completions / horizon)
    and the latency comparisons in Fig. 1's narrative.  Samples live in
    chunked numpy buffers (:class:`SampleBuffer`), not Python lists — at
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

    @property
    def count(self) -> int:
        return len(self.latencies)

    def mean(self) -> float:
        n = len(self.latencies)
        # Sequential summation in append order: bit-identical to the
        # historical sum(list) / n.
        return self.latencies.running_sum() / n if n else 0.0

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

    def throughput(self, horizon: Optional[float] = None) -> float:
        """Completed operations per virtual second."""
        n = len(self.completion_times)
        if not n:
            return 0.0
        h = horizon if horizon is not None else self.completion_times.max()
        return n / h if h > 0 else 0.0

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

    def value_at(self, t: float) -> float:
        i = bisect.bisect_left(self.times, t)
        i = min(i, len(self.values) - 1)
        return self.values[i]


@dataclass
class _Phase:
    total: float = 0.0
    n: int = 0

    def add(self, seconds: float) -> None:
        self.total += seconds
        self.n += 1

    def mean_us(self) -> float:
        return 1e6 * self.total / self.n if self.n else 0.0


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
    """

    LAYERS = ("data_log", "delta_log", "parity_log")
    PHASES = ("append", "buffer", "recycle")

    def __init__(self) -> None:
        self._acc: Dict[str, Dict[str, _Phase]] = {
            layer: {phase: _Phase() for phase in self.PHASES} for layer in self.LAYERS
        }

    def record_append(self, layer: str, seconds: float) -> None:
        self._acc[layer]["append"].add(seconds)

    def record_buffer(self, layer: str, seconds: float) -> None:
        self._acc[layer]["buffer"].add(seconds)

    def record_recycle(self, layer: str, seconds: float) -> None:
        self._acc[layer]["recycle"].add(seconds)

    def mean_us(self, layer: str) -> Tuple[float, float, float]:
        """(append, buffer, recycle) mean residency in microseconds."""
        acc = self._acc[layer]
        return tuple(acc[phase].mean_us() for phase in self.PHASES)

    def total_time_us(self) -> float:
        """End-to-end mean residency across the three layers, in µs."""
        return sum(sum(self.mean_us(layer)) for layer in self.LAYERS)

    def samples(self, layer: str) -> int:
        return max(p.n for p in self._acc[layer].values())

    def merge(self, other: "ResidencyTracker") -> "ResidencyTracker":
        """Combine trackers from several OSD engines."""
        out = ResidencyTracker()
        for src in (self, other):
            for layer in self.LAYERS:
                for phase in self.PHASES:
                    p = src._acc[layer][phase]
                    out._acc[layer][phase].total += p.total
                    out._acc[layer][phase].n += p.n
        return out
