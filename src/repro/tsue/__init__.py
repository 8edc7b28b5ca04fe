"""TSUE: the two-stage update engine (paper §3-§4).

:class:`~repro.tsue.engine.TSUEEngine` hosts, per OSD:

* the synchronous front end — replicated sequential DataLog appends;
* the asynchronous back end — per-layer recycle runners draining the
  DataLog -> DeltaLog -> ParityLog pipeline in real time, as wide as the
  device while somebody waits on a layer;
* the locality machinery — merged/coalesced segments at every layer and
  Eq. (5) cross-block combining inside the DeltaLog recycler;
* the elasticity/ablation knobs of :class:`~repro.tsue.engine.TSUEConfig`
  (Fig. 6b unit quota sweep, Fig. 7 O1..O5 breakdown).
"""

from repro.tsue.engine import TSUEConfig, TSUEEngine

__all__ = ["TSUEConfig", "TSUEEngine"]
