"""Work identities of the in-place update family, asserted on the model.

Table 1's counters obey identities that follow from the methods' designs,
whatever the trace:

* FO reads the old bytes of every block it overwrites (data and each
  parity block), so its device R/W count is exactly twice its overwrite
  count;
* FO, PL and PLR share the front half (``UpdateStrategy.update_in_place``):
  one scaled delta per parity block, forwarded under a different message
  kind, and their drains are local — so they send the same bytes in the
  same number of messages;
* PL overwrites the data block in place like FO, and its drain charges
  one random read + overwrite per logged parity delta (it exploits no
  locality), so it overwrites exactly as often as FO — off the critical
  path.

Each cell is RS(6,4), 6 clients x 60 updates, on both trace families and
two seeds.
"""

import pytest

from repro.harness.experiment import ExperimentConfig, run_experiment


def cell(method, trace, seed):
    return run_experiment(ExperimentConfig(
        method=method, trace=trace, k=6, m=4, n_clients=6,
        updates_per_client=60, seed=seed, verify=False,
    ))


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("trace", ["ali", "ten"])
def test_fo_pl_and_plr_obey_the_work_identities(trace, seed):
    fo, pl, plr = (cell(m, trace, seed) for m in ("fo", "pl", "plr"))
    assert fo.overwrite_ops > 0
    assert fo.rw_ops == 2 * fo.overwrite_ops
    assert fo.net_bytes == pl.net_bytes == plr.net_bytes
    assert fo.net_messages == pl.net_messages == plr.net_messages
    assert fo.overwrite_ops == pl.overwrite_ops
