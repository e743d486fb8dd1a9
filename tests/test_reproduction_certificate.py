"""The reproduction certificate: the complete Table 1 claim, exhaustively.

Every Table 1 row × every applicable adversary strategy × Byzantine
placement (lowest/highest IDs), each at the row's **exact** tolerance
bound, on a shared view-distinguishable graph.  One passing run of this
module is the codebase's end-to-end witness that the paper's results
table holds in simulation.

(The benchmarks measure the same grid's costs; this module pins its
correctness into the fast test suite.)
"""

import pytest

from repro.byzantine import STRONG_STRATEGIES, WEAK_STRATEGIES, Adversary
from repro.core import TABLE1, get_row, row_applicable
from repro.graphs import is_quotient_isomorphic, random_connected


@pytest.fixture(scope="module")
def certificate_graph():
    for seed in range(50):
        g = random_connected(8, seed=seed)
        if is_quotient_isomorphic(g):
            return g
    raise RuntimeError("no view-distinguishable graph found")


def _cases():
    for row in TABLE1:
        strategies = STRONG_STRATEGIES if row.strong else WEAK_STRATEGIES
        for strategy in strategies:
            for placement in ("lowest", "highest"):
                yield pytest.param(
                    row.serial, strategy, placement,
                    id=f"row{row.serial}-{strategy}-{placement}",
                )


@pytest.mark.parametrize("serial,strategy,placement", list(_cases()))
def test_table1_certificate(certificate_graph, serial, strategy, placement):
    row = get_row(serial)
    assert row_applicable(row, certificate_graph)
    f = row.f_max(certificate_graph)
    report = row.solver(
        certificate_graph,
        f=f,
        adversary=Adversary(strategy, seed=1),
        seed=1,
        byz_placement=placement,
    )
    assert report.success, (
        f"Table 1 row {serial} (Theorem {row.theorem}) failed at its bound "
        f"f={f} vs {strategy}/{placement}: {report.violations}"
    )
    # The run must also respect the row's total-cost shape: charged rounds
    # exactly equal the cited formulas for the oracle rows.  Row 2's
    # formula depends on which IDs are honest (|Λgood|); the registry uses
    # the lowest-IDs-corrupted convention, so only compare under it.
    if serial in (3, 6) or (serial == 2 and placement == "lowest"):
        assert report.rounds_charged == row.paper_bound(certificate_graph, f)
    # The gathered-start rows are simulated end to end: nothing charged.
    if serial in (4, 5, 7):
        assert report.rounds_charged == 0
