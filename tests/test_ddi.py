"""Tests for the DDI distributed-array layer."""

import numpy as np
import pytest

from repro.faults import FaultInjector
from repro.x1 import DDIArray, DynamicLoadBalancer, Engine, SymmetricHeap, X1Config
from repro.x1.ddi import block_ranges


class TestBlockRanges:
    def test_covers_everything(self):
        for n, p in [(10, 3), (7, 7), (5, 8), (100, 13)]:
            ranges = block_ranges(n, p)
            assert len(ranges) == p
            assert ranges[0][0] == 0
            assert ranges[-1][1] == n
            for (a, b), (c, d) in zip(ranges, ranges[1:]):
                assert b == c

    def test_near_even(self):
        sizes = [hi - lo for lo, hi in block_ranges(100, 7)]
        assert max(sizes) - min(sizes) <= 1


class TestDDIArray:
    def setup_method(self):
        self.cfg = X1Config(n_msps=4)
        self.heap = SymmetricHeap(4)
        self.A = DDIArray(self.heap, "A", 10, 3, msps_per_node=4)
        full = np.arange(30, dtype=float).reshape(10, 3)
        for r, (lo, hi) in enumerate(self.A.ranges):
            self.A.set_local(r, full[lo:hi])
        self.full = full

    def run(self, prog):
        eng = Engine(self.cfg, self.heap)
        eng.run([prog] * 4)
        return eng

    def test_owner_of(self):
        owners = [self.A.owner_of(r) for r in range(10)]
        assert owners == sorted(owners)
        assert owners[0] == 0 and owners[-1] == 3

    def test_get_rows_arbitrary_order(self):
        got = {}

        def prog(proc, h):
            if proc.rank == 2:
                rows = np.array([9, 0, 4, 4, 7])
                got["data"] = yield from self.A.iget_rows(proc, rows)
            else:
                yield proc.compute(0.0)

        self.run(prog)
        assert np.allclose(got["data"], self.full[[9, 0, 4, 4, 7]])

    def test_acc_rows_accumulates(self):
        def prog(proc, h):
            data = np.full((2, 3), float(proc.rank + 1))
            yield from self.A.iacc_rows(proc, np.array([0, 9]), data)

        self.run(prog)
        # every rank added rank+1 to rows 0 and 9: total += 1+2+3+4 = 10
        assert np.allclose(self.heap.segment("A", 0)[0], self.full[0] + 10)
        blk3 = self.heap.segment("A", 3)
        assert np.allclose(blk3[-1], self.full[9] + 10)

    def test_col_block_roundtrip(self):
        got = {}

        def prog(proc, h):
            if proc.rank == 1:
                got["cols"] = yield from self.A.iget_col_block(proc, 1, 3)
            else:
                yield proc.compute(0.0)

        self.run(prog)
        assert np.allclose(got["cols"], self.full[:, 1:3])

    def test_acc_col_block(self):
        def prog(proc, h):
            if proc.rank == 0:
                yield from self.A.iacc_col_block(proc, 0, 1, np.ones((10, 1)))
            else:
                yield proc.compute(0.0)

        self.run(prog)
        assembled = np.vstack(
            [self.heap.segment("A", r) for r in range(4)]
        )
        assert np.allclose(assembled[:, 0], self.full[:, 0] + 1)
        assert np.allclose(assembled[:, 1:], self.full[:, 1:])

    def test_trace_mode_charges_bytes(self):
        heap = SymmetricHeap(4)
        B = DDIArray(heap, "B", 100, 5, numeric=False)

        def prog(proc, h):
            if proc.rank == 0:
                out = yield from B.iget_rows(proc, np.arange(50))
                assert out is None
            else:
                yield proc.compute(0.0)

        eng = Engine(self.cfg, heap)
        eng.run([prog] * 4)
        assert eng.stats[0].bytes_received == 50 * 5 * 8


class TestTaggedAccumulate:
    """``tag=`` makes the one DDI_ACC routine exactly-once per owner."""

    ROWS = np.array([0, 9, 4])

    def _array(self, faults=None, tags=8):
        heap = SymmetricHeap(4)
        A = DDIArray(heap, "A", 10, 3, msps_per_node=4, faults=faults)
        if tags:
            A.alloc_commit_tags(tags)
        return heap, A

    def _issue(self, heap, A, faults, times, tag, op):
        """Rank 1 issues the same accumulate ``times`` times; returns the array."""

        def prog(proc, h):
            if proc.rank == 1:
                for _ in range(times):
                    if op == "rows":
                        data = np.arange(9, dtype=float).reshape(3, 3) + 1
                        yield from A.iacc_rows(proc, self.ROWS, data, tag=tag)
                    else:
                        data = np.arange(20, dtype=float).reshape(10, 2) + 1
                        yield from A.iacc_col_block(proc, 1, 3, data, tag=tag)
            else:
                yield proc.compute(0.0)

        Engine(X1Config(n_msps=4), heap, faults=faults).run([prog] * 4)
        return np.vstack([heap.segment("A", r) for r in range(4)])

    @pytest.mark.parametrize("op", ["rows", "cols"])
    def test_issued_twice_adds_once(self, op):
        fi = FaultInjector()
        heap, A = self._array(faults=fi)
        twice = self._issue(heap, A, fi, 2, 5, op)
        heap1, A1 = self._array()
        once = self._issue(heap1, A1, None, 1, 5, op)
        assert np.array_equal(twice, once) and once.any()
        # one dedup per owner window the second issue touched
        n_owners = 3 if op == "rows" else 4
        assert fi.counts()["faults.recovered.acc_dedup"] == n_owners

    @pytest.mark.parametrize("op", ["rows", "cols"])
    def test_tagged_equals_untagged(self, op):
        heap, A = self._array()
        tagged = self._issue(heap, A, None, 1, 2, op)
        heap, A = self._array(tags=0)
        untagged = self._issue(heap, A, None, 1, None, op)
        assert np.array_equal(tagged, untagged)

    @pytest.mark.parametrize("op", ["rows", "cols"])
    def test_tag_without_alloc_is_named_error(self, op):
        heap, A = self._array(tags=0)
        with pytest.raises(RuntimeError, match="alloc_commit_tags"):
            self._issue(heap, A, None, 1, 0, op)


class TestDLB:
    def test_tasks_unique_and_complete(self):
        cfg = X1Config(n_msps=5)
        heap = SymmetricHeap(5)
        dlb = DynamicLoadBalancer(heap)
        taken = []

        def prog(proc, h):
            while True:
                t = yield from dlb.inext(proc)
                if t >= 13:
                    break
                taken.append(t)
                yield proc.compute(0.001)

        Engine(cfg, heap).run([prog] * 5)
        assert sorted(taken) == list(range(13))

    def test_reset(self):
        heap = SymmetricHeap(2)
        dlb = DynamicLoadBalancer(heap)
        heap.segment(dlb.name, 0)[0] = 55
        dlb.reset()
        assert heap.segment(dlb.name, 0)[0] == 0

    def test_counter_contention_costs_time(self):
        # hammering the DLB server must take at least n * atomic_overhead
        cfg = X1Config(n_msps=4)
        heap = SymmetricHeap(4)
        dlb = DynamicLoadBalancer(heap)

        def prog(proc, h):
            for _ in range(50):
                yield from dlb.inext(proc)

        eng = Engine(cfg, heap).run([prog] * 4)
        elapsed = max(s.finish_time for s in eng)
        # 150 remote fadds serialize at rank 0's memory port (rank 0's own
        # 50 are local and uncontended)
        assert elapsed >= 150 * X1Config().atomic_overhead * 0.9
