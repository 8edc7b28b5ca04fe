"""Measurement infrastructure.

Everything the paper's evaluation section reports is derived from four
collectors:

* :class:`~repro.metrics.counters.OpCounters` — per-device I/O operation and
  byte counts, split by read/write, random/sequential, and overwrite
  (in-place write-penalty) accounting plus FTL erase estimates (Table 1,
  lifespan claims).
* :class:`~repro.metrics.counters.NetCounters` — per-node and global network
  traffic (Table 1 NETWORK column).
* :class:`~repro.metrics.latency.LatencyRecorder` — latency samples and
  completion instants (Fig. 5, Fig. 6a throughput series), each kept in a
  :class:`~repro.metrics.latency.SampleBuffer`, a stdlib ``array('d')``.
* :class:`~repro.metrics.latency.ResidencyTracker` — append / buffer /
  recycle residency per log layer (Table 2).
"""

from repro.metrics.counters import NetCounters, OpCounters, WearModel
from repro.metrics.latency import IntervalSeries, LatencyRecorder, ResidencyTracker
from repro.metrics.report import format_series, format_table

__all__ = [
    "IntervalSeries",
    "LatencyRecorder",
    "NetCounters",
    "OpCounters",
    "ResidencyTracker",
    "WearModel",
    "format_series",
    "format_table",
]
