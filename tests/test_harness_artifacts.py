"""Every paper-artifact runner at tiny scale.

Each must render, give every series one value per row, and name its
artifact in the title.  The benchmarks assert the paper's shapes at
realistic scale; keeping every runner in the unit suite guarantees no
artifact's code path rots.
"""

import pytest

from repro.harness import artifacts as art

TINY = dict(n_clients=2, updates_per_client=10)

# id -> (runner call, what its title must name)
RUNNERS = {
    "fig5": (lambda: art.run_fig5(6, 2, "ten", clients=(2,), updates_per_client=10,
                                  methods=("fo", "tsue")), "Fig.5 RS(6,2)"),
    "fig6a": (lambda: art.run_fig6a(n_clients=3, updates_per_client=30, buckets=5),
              "Fig.6a"),
    "fig6b": (lambda: art.run_fig6b(quotas=(2, 4), **TINY), "Fig.6b"),
    "fig7": (lambda: art.run_fig7(m=2, variants=art.VARIANTS[2:4], **TINY), "Fig.7"),
    "fig8a": (lambda: art.run_fig8a(volumes=("hm0",), methods=("fo", "tsue"), **TINY),
              "Fig.8a"),
    "fig8b": (lambda: art.run_fig8b(volumes=("hm0",), methods=("fo", "tsue"), seed=3,
                                    n_clients=2, updates_per_client=20), "Fig.8b"),
    "table1": (lambda: art.run_table1(methods=("fo", "tsue"), **TINY), "Table 1"),
    "table2": (lambda: art.run_table2(unit_bytes=64 * 1024, **TINY), "Table 2"),
    "lifespan": (lambda: art.run_lifespan(methods=("fo", "tsue"), **TINY), "lifespan"),
    "unit_size": (lambda: art.run_unit_size_ablation(
        unit_sizes=(32 * 1024, 64 * 1024), n_clients=2, updates=10), "log-unit size"),
    "replicas": (lambda: art.run_replica_ablation(
        replica_counts=(1, 2), n_clients=2, updates=10), "DataLog replica count"),
    "index": (lambda: art.run_index_ablation(n_clients=2, updates=10), "index merging"),
}


@pytest.mark.parametrize("name", list(RUNNERS))
def test_artifact_runner_renders_one_value_per_row(name):
    run, names = RUNNERS[name]
    grid = run()
    assert names in grid.title
    assert grid.x and grid.series
    for column, values in grid.series.items():
        assert len(values) == len(grid.x), column
    lines = grid.render().splitlines()
    assert lines[0] == grid.title
    assert len(lines) == 3 + len(grid.x)
