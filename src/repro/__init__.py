"""TSUE reproduction: two-stage updates for erasure-coded cluster storage.

Public entry points:

* :class:`repro.cluster.Cluster` / :class:`repro.cluster.ClusterConfig` —
  build a simulated ECFS cluster with any update strategy;
* :func:`repro.update.make_strategy_factory` — pick an update method
  (``"fo"``, ``"fl"``, ``"pl"``, ``"plr"``, ``"parix"``, ``"cord"``,
  ``"tsue"``);
* :func:`repro.harness.run_experiment` — one measured experiment cell;
* :mod:`repro.harness.artifacts` — the paper's figures and tables, one
  ``Grid`` of runs each;
* :func:`repro.recovery.recover_node` — verified node recovery.

``python -m repro --help`` exposes the experiment runner on the command
line.

The re-exports below are lazy (PEP 562): ``python -m repro`` must be able
to launch without importing the engine, so ``--help``, the one
dependency-free path, never pulls in numpy.  ``from repro import
Cluster`` still works — the attribute access triggers the real import.
"""

__version__ = "1.0.0"

# Public name -> defining submodule, resolved on first attribute access.
_LAZY_EXPORTS = {
    "Cluster": "repro.cluster",
    "ClusterConfig": "repro.cluster",
    "RSCodec": "repro.ec",
    "Simulator": "repro.sim",
    "TSUEConfig": "repro.tsue",
    "TSUEEngine": "repro.tsue",
}

__all__ = [
    "Cluster",
    "ClusterConfig",
    "RSCodec",
    "Simulator",
    "TSUEConfig",
    "TSUEEngine",
    "__version__",
]


def __getattr__(name):
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache: subsequent accesses skip __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
