"""Integration tests: the Table 1 registry end to end."""

import pytest

from repro.analysis import (
    fit_power_law,
    run_table1,
    run_table1_row,
    scaling_sweep,
    tolerance_sweep,
)
from repro.core import TABLE1, get_row, row_applicable
from repro.graphs import is_quotient_isomorphic, random_connected, ring


def _view_distinct(n):
    """The first view-distinguishable ``random_connected(n, seed)``."""
    for seed in range(50):
        g = random_connected(n, seed=seed)
        if is_quotient_isomorphic(g):
            return g
    raise RuntimeError(f"no view-distinguishable graph on {n} nodes")


SCALING_GRAPHS = [_view_distinct(n) for n in (6, 8, 10, 12)]


class TestRegistryShape:
    def test_seven_rows(self):
        assert [r.serial for r in TABLE1] == [1, 2, 3, 4, 5, 6, 7]

    def test_theorem_mapping_matches_paper(self):
        # Table 1's serial -> theorem mapping (paper page 5).
        assert {r.serial: r.theorem for r in TABLE1} == {
            1: 1, 2: 2, 3: 5, 4: 3, 5: 4, 6: 7, 7: 6,
        }

    def test_strong_flags(self):
        assert {r.serial for r in TABLE1 if r.strong} == {6, 7}

    def test_starts(self):
        arbitrary = {r.serial for r in TABLE1 if r.start == "Arbitrary"}
        assert arbitrary == {1, 2, 3, 6}

    def test_get_row(self):
        assert get_row(4).theorem == 3
        with pytest.raises(KeyError):
            get_row(8)

    def test_tolerances_at_n8(self, rc8):
        f_max = {r.serial: r.f_max(rc8) for r in TABLE1}
        assert f_max == {1: 7, 2: 3, 3: 1, 4: 3, 5: 1, 6: 1, 7: 1}

    def test_paper_bounds_ordering(self, rc8):
        """Row 2's bound dominates row 3's; gathered rows are polynomial."""
        b = {r.serial: r.paper_bound(rc8, r.f_max(rc8)) for r in TABLE1}
        assert b[2] > b[3] > b[5]
        assert b[4] == 8**4 and b[5] == 8**3 == b[7]

    def test_row1_applicability(self, rc8):
        assert row_applicable(get_row(1), rc8)
        assert not row_applicable(get_row(1), ring(8))
        assert row_applicable(get_row(4), ring(8))


class TestRunTable1:
    def test_full_table_succeeds(self, rc8):
        recs = run_table1(rc8, strategies=["squatter"], seed=1)
        assert len(recs) == 7
        assert all(r["success"] for r in recs)

    def test_row1_skipped_on_symmetric_graph(self):
        recs = run_table1(ring(8), strategies=["idle"], seed=1, serials=[1, 5])
        assert {r["serial"] for r in recs} == {5}

    def test_single_row_multiple_strategies(self, rc8):
        row = get_row(5)
        recs = run_table1_row(row, rc8, ["squatter", "idle", "crash"], seed=2)
        assert len(recs) == 3
        assert all(r["success"] for r in recs)
        assert {r["strategy"] for r in recs} == {"squatter", "idle", "crash"}

    def test_explicit_f(self, rc8):
        recs = run_table1_row(get_row(4), rc8, ["idle"], f=1)
        assert recs[0]["f"] == 1


class TestSweeps:
    def test_tolerance_sweep_accepts_and_rejects(self, rc8):
        row = get_row(5)  # Thm 4: f_max = 1 at n=8
        recs = tolerance_sweep(row, rc8, [0, 1, 2, 5], "squatter", seed=1)
        by_f = {r["f"]: r for r in recs}
        assert by_f[0]["success"] and by_f[1]["success"]
        assert by_f[2]["rejected"] and by_f[5]["rejected"]

    def test_scaling_sweep_monotone_bounds(self):
        graphs = [random_connected(n, seed=n) for n in (6, 9, 12)]
        row = get_row(5)
        recs = scaling_sweep(row, graphs, "idle", seed=0)
        assert [r["n"] for r in recs] == [6, 9, 12]
        bounds = [r["paper_bound"] for r in recs]
        assert bounds == sorted(bounds)
        assert all(r["success"] for r in recs)

    @pytest.mark.parametrize("serial,strategy", [
        (1, "ghost_squatter"), (4, "ghost_squatter"), (5, "ghost_squatter"),
        (7, "impersonator"),
    ])
    def test_tolerance_sweep_rejects_exactly_beyond_f_max(self, serial, strategy):
        g = _view_distinct(9)
        row = get_row(serial)
        f_max = row.f_max(g)
        fs = sorted({0, 1, f_max // 2, f_max, f_max + 1, g.n - 1})
        recs = tolerance_sweep(row, g, fs, strategy, seed=1)
        ran = [r for r in recs if not r.get("rejected")]
        assert ran and all(r["success"] for r in ran)
        assert {r["f"] for r in recs if r.get("rejected")} == {f for f in fs if f > f_max}

    @pytest.mark.parametrize("serial", [1, 4, 5, 7])
    def test_scaling_fit_is_superlinear_in_rounds(self, serial):
        """Fitted ``rounds_total ~ n^alpha`` over n = 6..12 grows faster
        than sqrt(n) on every row with simulated rounds."""
        recs = scaling_sweep(get_row(serial), SCALING_GRAPHS, "squatter", seed=1,
                             f_fraction_of_max=1.0)
        assert all(r["success"] for r in recs)
        fit = fit_power_law([r["n"] for r in recs],
                            [max(r["rounds_total"], 1) for r in recs])
        assert fit.alpha > 0.5

    def test_row4_over_row5_gap_widens_with_n(self):
        """The O(n^4) (row 4) vs O(n^3) (row 5) separation: row 4
        simulates more rounds at every n, and the ratio grows."""
        r4 = scaling_sweep(get_row(4), SCALING_GRAPHS, "idle", seed=2)
        r5 = scaling_sweep(get_row(5), SCALING_GRAPHS, "idle", seed=2)
        ratios = [a["rounds_simulated"] / max(b["rounds_simulated"], 1)
                  for a, b in zip(r4, r5)]
        assert all(r > 1.0 for r in ratios)
        assert ratios[-1] > ratios[0]

    def test_row2_charge_above_row3_at_every_n(self):
        r2 = scaling_sweep(get_row(2), SCALING_GRAPHS, "idle", seed=3)
        r3 = scaling_sweep(get_row(3), SCALING_GRAPHS, "idle", seed=3)
        assert all(r["success"] for r in r2 + r3)
        for a, b in zip(r2, r3):
            assert a["rounds_charged"] > b["rounds_charged"]
