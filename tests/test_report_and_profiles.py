"""Remaining edge coverage: report rendering, device profiles, Fig. 5 codes."""

import pytest

from repro.devices.profiles import HDD_2TB_7200, SSD_DATACENTER_400GB
from repro.harness.artifacts import CODES, Grid
from repro.metrics.report import _fmt, format_series, format_table


def test_fmt_covers_number_classes():
    assert _fmt(0.0) == "0"
    assert _fmt(1234.5) == "1,234"  # thousands grouping for big floats
    assert _fmt(3.14159) == "3.14"
    assert _fmt(0.00123) == "0.00123"
    assert _fmt(12345) == "12,345"
    assert _fmt("x") == "x"


def test_format_table_column_alignment():
    out = format_table(["col", "n"], [["a", 1], ["bbbb", 22]])
    lines = out.splitlines()
    # All rows have equal width.
    assert len({len(line) for line in lines}) == 1


def test_format_series_mismatched_width_raises():
    with pytest.raises(ValueError):
        format_series({"a": [1]}, x=[1, 2], x_name="x")


def test_ssd_profile_envelope_sanity():
    p = SSD_DATACENTER_400GB
    # Random overheads dominate sequential ones by several times.
    assert p.rand_read_overhead > 3 * p.seq_read_overhead
    assert p.rand_write_overhead > 3 * p.seq_write_overhead
    # 4 KiB QD1 random read lands in the published 80-120 us envelope.
    t = p.rand_read_overhead + 4096 / p.rand_read_bw
    assert 80e-6 < t < 120e-6
    assert p.is_flash and p.channels >= 1


def test_hdd_profile_envelope_sanity():
    p = HDD_2TB_7200
    # Effective random read is in the NCQ-assisted ms range.
    assert 3e-3 < p.rand_read_overhead < 13e-3
    # Writes destage faster than reads seek.
    assert p.rand_write_overhead < p.rand_read_overhead
    assert not p.is_flash


def test_fig5_code_grid_matches_paper():
    assert CODES == ((6, 2), (12, 2), (6, 3), (12, 3), (6, 4), (12, 4))


def test_fig5_panel_winner_and_render():
    panel = Grid("Fig.5 RS(6,2) ten-cloud", "clients", [4, 8],
                 {"fo": [10.0, 20.0], "tsue": [30.0, 40.0]})

    def winner_at(n):
        row = panel.x.index(n)
        return max(panel.series, key=lambda name: panel.series[name][row])

    assert winner_at(4) == "tsue"
    assert winner_at(8) == "tsue"
    text = panel.render()
    assert "RS(6,2)" in text and "clients" in text
    with pytest.raises(ValueError):
        winner_at(99)
