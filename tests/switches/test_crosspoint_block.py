"""Tests for crosspoint and block-crosspoint buffering."""

import numpy as np
import pytest

from repro.switches import BlockCrosspoint, CrosspointQueued, SharedBuffer
from repro.traffic import BernoulliUniform, FixedPermutation, TraceSource, record_trace


class TestCrosspoint:
    def test_validation(self):
        with pytest.raises(ValueError):
            CrosspointQueued(2, 2, capacity=0)
        with pytest.raises(ValueError):
            CrosspointQueued(2, 2, service="lifo")

    def test_full_throughput_at_saturation(self):
        """§2.1: crosspoint queueing achieves optimal link utilization."""
        sw = CrosspointQueued(8, 8, warmup=1000, seed=1)
        stats = sw.run(BernoulliUniform(8, 8, 1.0, seed=2), 15_000)
        assert stats.throughput == pytest.approx(1.0, abs=0.02)

    def test_oldest_first_service(self):
        sw = CrosspointQueued(4, 4, service="oldest_first", warmup=500, seed=3)
        stats = sw.run(BernoulliUniform(4, 4, 0.9, seed=4), 8000)
        assert stats.throughput == pytest.approx(0.9, abs=0.03)

    def test_needs_more_memory_than_shared(self):
        """§2.1: 'a total memory capacity considerably higher' — same total
        budget, crosspoint loses more."""
        n, total = 4, 16
        trace = record_trace(BernoulliUniform(n, n, 0.95, seed=5), 20_000)
        xp = CrosspointQueued(n, n, capacity=total // (n * n), warmup=500, seed=6)
        sh = SharedBuffer(n, n, capacity=total, warmup=500, seed=6)
        loss_xp = xp.run(TraceSource(trace, n), 20_000).loss_probability
        loss_sh = sh.run(TraceSource(trace, n), 20_000).loss_probability
        assert loss_xp > loss_sh

    def test_per_queue_capacity(self):
        sw = CrosspointQueued(2, 2, capacity=1, seed=7)
        sw.run(BernoulliUniform(2, 2, 1.0, seed=8), 1000)
        for row in sw.queues:
            for q in row:
                assert len(q) <= 1


class TestBlockCrosspoint:
    def test_block_must_divide(self):
        with pytest.raises(ValueError):
            BlockCrosspoint(4, 4, block=3)

    def test_degenerate_full_block_acts_like_shared(self):
        """block == n: one shared buffer; same drop behaviour on a trace."""
        n, cap = 4, 8
        trace = record_trace(BernoulliUniform(n, n, 0.95, seed=9), 8000)
        bc = BlockCrosspoint(n, n, block=n, capacity_per_block=cap, warmup=500, seed=10)
        sh = SharedBuffer(n, n, capacity=cap, warmup=500, seed=10)
        loss_bc = bc.run(TraceSource(trace, n), 8000).loss_probability
        loss_sh = sh.run(TraceSource(trace, n), 8000).loss_probability
        assert loss_bc == pytest.approx(loss_sh, abs=0.02)

    def test_degenerate_unit_block_acts_like_crosspoint(self):
        n, cap = 4, 2
        trace = record_trace(BernoulliUniform(n, n, 0.95, seed=11), 8000)
        bc = BlockCrosspoint(n, n, block=1, capacity_per_block=cap, warmup=500, seed=12)
        xp = CrosspointQueued(n, n, capacity=cap, warmup=500, seed=12)
        loss_bc = bc.run(TraceSource(trace, n), 8000).loss_probability
        loss_xp = xp.run(TraceSource(trace, n), 8000).loss_probability
        assert loss_bc == pytest.approx(loss_xp, abs=0.02)

    def test_intermediate_block_between_extremes(self):
        """§2.2: block-crosspoint interpolates crosspoint <-> shared memory
        utilization.  Same total memory, loss ordering holds."""
        n, total = 8, 32
        trace = record_trace(BernoulliUniform(n, n, 0.95, seed=13), 15_000)
        losses = {}
        for block in (1, 2, 4, 8):
            buffers = (n // block) ** 2
            sw = BlockCrosspoint(
                n, n, block=block, capacity_per_block=max(total // buffers, 1),
                warmup=500, seed=14,
            )
            losses[block] = sw.run(TraceSource(trace, n), 15_000).loss_probability
        assert losses[8] < losses[1]  # full sharing beats full partitioning

    def test_full_throughput(self):
        sw = BlockCrosspoint(8, 8, block=4, warmup=1000, seed=15)
        stats = sw.run(BernoulliUniform(8, 8, 1.0, seed=16), 12_000)
        assert stats.throughput == pytest.approx(1.0, abs=0.02)

    def test_permutation_zero_delay(self):
        sw = BlockCrosspoint(4, 4, block=2, seed=17)
        stats = sw.run(FixedPermutation([2, 3, 0, 1]), 200)
        assert stats.mean_delay == pytest.approx(0.0)


def _crosspoint_queue(sw, i, j):
    return sw.queues[i][j]


def _block_queue(sw, bi, j):
    return sw.queues[bi][j // sw.block][j % sw.block]


@pytest.mark.parametrize("make, queue, rows", [
    (lambda: CrosspointQueued(6, 6, capacity=2), _crosspoint_queue, 6),
    (lambda: CrosspointQueued(6, 6, capacity=2, service="oldest_first"),
     _crosspoint_queue, 6),
    (lambda: BlockCrosspoint(6, 6, block=2, capacity_per_block=3), _block_queue, 3),
    (lambda: BlockCrosspoint(6, 6, block=1, capacity_per_block=1), _block_queue, 6),
], ids=["crosspoint", "oldest-first", "block", "block-1"])
def test_request_masks_track_nonempty_queues(make, queue, rows):
    """Bit i of ``_cols[j]`` is set exactly while crosspoint (or block) i
    holds a cell for output j, after every slot of random finite-buffer
    traffic, including slots that drop and slots that drain."""
    sw = make()
    rng = np.random.default_rng(11)
    for slot in range(600):
        load = 1.0 if slot < 400 else 0.2  # overload, then drain
        dests = [int(d) if rng.random() < load else None
                 for d in rng.integers(0, 6, size=6)]
        sw.step(dests)
        for j in range(6):
            expect = sum(1 << i for i in range(rows) if queue(sw, i, j))
            assert sw._cols[j] == expect, (slot, j)
    assert sw.stats.dropped > 0
    assert sw.occupancy() < 6  # the light tail drained most queues
