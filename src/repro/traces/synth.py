"""The synthetic trace engine.

A trace is a sequence of :class:`TraceRecord` update requests against one
file's logical address space.  Generation combines:

* a **size distribution** given as (size, probability) pairs — the paper
  quotes these marginals for each trace family;
* **temporal locality** via Zipf-distributed popularity over aligned pages
  of a *hot working set* covering ``hot_fraction`` of the file (Ten-Cloud:
  >80 % of volumes touch <5 % of their data, §2.3.3);
* **spatial locality** via run bursts: with probability ``run_prob`` the
  next request continues right after the previous one instead of jumping
  to a fresh Zipf-sampled page.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

PAGE = 4096


@dataclass(frozen=True)
class TraceRecord:
    """One update request in file-logical coordinates."""

    offset: int
    size: int

    def __post_init__(self) -> None:
        if self.offset < 0 or self.size <= 0:
            raise ValueError(f"invalid record ({self.offset}, {self.size})")


@dataclass
class SyntheticTraceConfig:
    """Knobs of one trace family; see the per-family modules for values."""

    name: str
    # (size_bytes, probability) — probabilities must sum to 1.
    size_dist: Sequence[Tuple[int, float]]
    # Fraction of the file covered by the hot working set.
    hot_fraction: float = 0.05
    # Zipf skew over hot pages (higher = more temporal locality).
    zipf_s: float = 1.1
    # Probability the next request continues sequentially (spatial run).
    run_prob: float = 0.3
    # Fraction of requests that jump outside the hot set (cold tail).
    cold_prob: float = 0.05

    def __post_init__(self) -> None:
        total = sum(p for _, p in self.size_dist)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"size distribution sums to {total}, expected 1")
        if not 0 < self.hot_fraction <= 1:
            raise ValueError("hot_fraction must be in (0, 1]")
        if not 0 <= self.run_prob < 1 or not 0 <= self.cold_prob <= 1:
            raise ValueError("probabilities must be in [0, 1)")


def _zipf_weights(n: int, s: float) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=np.float64)
    w = ranks ** (-s)
    return w / w.sum()


def choice_cdf(p) -> np.ndarray:
    """The cumulative table ``Generator.choice(..., p=p)`` searches.

    Built with the same operations ``choice`` uses (``cumsum``, then
    normalise by the last element), and ``choice`` draws exactly one
    ``random()`` per pick, so ``cdf.searchsorted(rng.random(), "right")``
    returns the same index from the same stream position at a tenth of
    ``choice``'s per-call cost.
    """
    p = np.asarray(p, dtype=np.float64)
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def generate_trace(
    config: SyntheticTraceConfig,
    file_size: int,
    n_requests: int,
    rng: np.random.Generator,
) -> List[TraceRecord]:
    """Materialise ``n_requests`` update records for a file of ``file_size``.

    Draws are scalar calls on ``rng`` in a fixed per-request order: a
    size pick, the run coin, the cold coin, then a cold page or a hot-set
    pick.  Weighted picks search a :func:`choice_cdf` table, which is
    ``Generator.choice`` without its per-call validation, so the records
    are a pure function of the stream.
    """
    if file_size < PAGE:
        raise ValueError(f"file must be at least one page ({PAGE}B)")
    n_pages = file_size // PAGE
    hot_pages = max(1, int(n_pages * config.hot_fraction))
    # A fixed random permutation scatters the hot set across the file so
    # hot pages land on different blocks/OSDs.
    perm = rng.permutation(n_pages)
    hot = perm[:hot_pages]
    weights = _zipf_weights(hot_pages, config.zipf_s)

    sizes = np.array([s for s, _ in config.size_dist])
    size_cdf = choice_cdf([p for _, p in config.size_dist])
    zipf_cdf = choice_cdf(weights)
    run_prob = config.run_prob
    cold_prob = config.cold_prob

    out: List[TraceRecord] = []
    prev_end = None
    for _ in range(n_requests):
        size = int(sizes[size_cdf.searchsorted(rng.random(), "right")])
        if prev_end is not None and rng.random() < run_prob:
            offset = prev_end  # spatial run continuation
        elif rng.random() < cold_prob:
            offset = int(rng.integers(0, n_pages)) * PAGE
        else:
            offset = int(hot[zipf_cdf.searchsorted(rng.random(), "right")]) * PAGE
        if offset + size > file_size:
            offset = max(0, file_size - size)
        out.append(TraceRecord(offset, size))
        prev_end = offset + size
    return out

