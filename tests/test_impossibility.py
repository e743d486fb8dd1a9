"""Tests for Theorem 8: the executable impossibility construction."""

import pytest

from repro.core import demonstrate_impossibility, impossibility_applies
from repro.errors import ConfigurationError
from repro.graphs import random_connected, ring


class TestCondition:
    def test_f_zero_never_applies(self):
        for n, k in [(5, 5), (5, 10), (3, 7)]:
            assert not impossibility_applies(n, k, 0)

    def test_k_equals_n(self):
        # ⌈n/n⌉ = 1; ⌈(n-f)/n⌉ = 1 for f < n: never applies until f = n.
        assert not impossibility_applies(5, 5, 4)
        assert impossibility_applies(5, 5, 5)  # zero survivors edge case

    def test_k_exceeds_n(self):
        # k=12, n=8: ⌈12/8⌉=2 > ⌈(12-f)/8⌉=1 once k-f <= 8, i.e. f >= 4.
        assert not impossibility_applies(8, 12, 3)
        assert impossibility_applies(8, 12, 4)
        assert impossibility_applies(8, 12, 6)

    def test_boundary_arithmetic(self):
        # Exactly the paper's inequality, over a grid.
        for n in (3, 5, 8):
            for k in (n, 2 * n - 1, 2 * n, 3 * n + 1):
                for f in range(0, k + 1):
                    lhs = -(-k // n)
                    rhs = -(-(k - f) // n)
                    assert impossibility_applies(n, k, f) == (lhs > rhs)

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            impossibility_applies(5, 0, 0)
        with pytest.raises(ConfigurationError):
            impossibility_applies(5, 3, 4)


class TestConstruction:
    def test_violation_demonstrated_when_applies(self, rc8):
        rep = demonstrate_impossibility(rc8, k=12, f=6, seed=1)
        assert rep.applies
        assert rep.violated
        assert rep.honest_at_crowded > rep.cap_required

    def test_no_violation_when_not_applies(self, rc8):
        rep = demonstrate_impossibility(rc8, k=16, f=2, seed=1)
        assert not rep.applies
        assert not rep.violated

    def test_execution2_reproduces_execution1(self, rc8):
        """Determinism: Byzantine robots replaying honest behaviour leave
        the outcome bit-identical — the crux of the argument."""
        rep = demonstrate_impossibility(rc8, k=12, f=5, seed=2)
        settled2 = {rid: node for rid, node in rep.exec2.settled.items()}
        for rid, node in settled2.items():
            assert rep.exec1.settled[rid] == node

    def test_boundary_sweep(self, rc8):
        """Crossing the ⌈k/n⌉ > ⌈(k−f)/n⌉ line flips the outcome."""
        k = 2 * rc8.n
        for f in range(0, rc8.n + 3):
            rep = demonstrate_impossibility(rc8, k=k, f=f, seed=0)
            # k=2n: applies iff k-f <= n  <=>  f >= n, and the
            # construction violates exactly when the theorem applies.
            assert (rep.applies, rep.violated) == (f >= rc8.n, f >= rc8.n), f

    def test_ring_instance(self):
        rep = demonstrate_impossibility(ring(6), k=9, f=4, seed=3)
        assert rep.applies and rep.violated
