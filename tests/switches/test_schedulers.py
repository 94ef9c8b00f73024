"""Tests for the VOQ crossbar schedulers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.sim.rng import make_rng
from repro.switches.schedulers import (
    GreedyMaximal,
    Islip,
    MaxSizeMatching,
    PIM,
    TwoDimRoundRobin,
)


def _check_matching(requests, pairs):
    """Raise unless ``pairs`` is a matching within ``requests``."""
    ins = [i for i, _ in pairs]
    outs = [j for _, j in pairs]
    if len(set(ins)) != len(ins) or len(set(outs)) != len(outs):
        raise AssertionError(f"not a matching: {pairs}")
    for i, j in pairs:
        if not requests[i][j]:
            raise AssertionError(f"pair ({i},{j}) not requested")


ALL_SCHEDULERS = [
    lambda: PIM(iterations=4, seed=1),
    lambda: Islip(iterations=4),
    lambda: TwoDimRoundRobin(),
    lambda: GreedyMaximal(seed=2),
    lambda: MaxSizeMatching(),
]

request_matrices = arrays(
    dtype=bool, shape=st.tuples(st.integers(1, 8), st.integers(1, 8))
)


@pytest.mark.parametrize("factory", ALL_SCHEDULERS)
@given(requests=request_matrices)
@settings(max_examples=30, deadline=None)
def test_always_returns_valid_matching(factory, requests):
    sched = factory()
    pairs = sched.match(requests)
    _check_matching(requests, pairs)  # raises on violation


@pytest.mark.parametrize("factory", ALL_SCHEDULERS)
def test_full_requests_yield_perfect_matching(factory):
    """With every VOQ nonempty, any sane scheduler matches all ports.

    iSLIP needs a few slots for its pointers to desynchronize from the
    cold all-zeros state, so schedulers get a short warm-up first.
    """
    n = 6
    requests = np.ones((n, n), dtype=bool)
    sched = factory()
    for _ in range(2 * n):
        pairs = sched.match(requests)
    assert len(pairs) == n


@pytest.mark.parametrize("factory", ALL_SCHEDULERS)
def test_empty_requests_yield_empty_matching(factory):
    requests = np.zeros((4, 4), dtype=bool)
    assert factory().match(requests) == []


@pytest.mark.parametrize("factory", ALL_SCHEDULERS)
def test_diagonal_requests_fully_served(factory):
    n = 5
    requests = np.eye(n, dtype=bool)
    pairs = factory().match(requests)
    assert sorted(pairs) == [(i, i) for i in range(n)]


@given(requests=request_matrices)
@settings(max_examples=30, deadline=None)
def test_maxsize_upper_bounds_greedy(requests):
    best = len(MaxSizeMatching().match(requests))
    greedy = len(GreedyMaximal(seed=3).match(requests))
    assert greedy <= best
    # Maximal matching is at least half of maximum.
    assert greedy >= (best + 1) // 2


def test_pim_convergence_with_iterations():
    """More PIM iterations never hurt (on average) — [AOST93]'s log n + 3/4."""
    rng = np.random.default_rng(4)
    sizes = {k: 0 for k in (1, 2, 4)}
    for trial in range(200):
        requests = rng.random((8, 8)) < 0.5
        for k in sizes:
            sizes[k] += len(PIM(iterations=k, seed=trial).match(requests))
    assert sizes[1] <= sizes[2] <= sizes[4]


def test_islip_pointer_desynchronization():
    """Under persistent full load iSLIP reaches a perfect rotating schedule."""
    n = 4
    sched = Islip(iterations=1)
    requests = np.ones((n, n), dtype=bool)
    matched = [len(sched.match(requests)) for _ in range(50)]
    # After the pointers desynchronize, every slot matches all n ports.
    assert all(m == n for m in matched[-20:])


def test_2drr_rotates_diagonals():
    sched = TwoDimRoundRobin()
    requests = np.ones((3, 3), dtype=bool)
    first = sched.match(requests)
    second = sched.match(requests)
    assert first != second  # the diagonal order rotates slot to slot
    assert len(first) == len(second) == 3


def test_iteration_validation():
    with pytest.raises(ValueError):
        PIM(iterations=0)
    with pytest.raises(ValueError):
        Islip(iterations=0)


def test_match_rejects_non_matrix_requests():
    with pytest.raises(ValueError):
        PIM(seed=1).match(np.ones(4, dtype=bool))


# -- reference oracles ---------------------------------------------------------
# The list-and-array schedulers that ran before the request-mask rewrite,
# kept verbatim in behaviour (every draw, in the order it was made) so the
# mask schedulers can be driven against them slot by slot.


class OraclePIM:
    def __init__(self, iterations, seed):
        self.iterations = iterations
        self.rng = make_rng(seed)

    def match(self, requests):
        n_in, n_out = requests.shape
        free_in = np.ones(n_in, dtype=bool)
        free_out = np.ones(n_out, dtype=bool)
        pairs = []
        for _ in range(self.iterations):
            grants = {}
            for j in range(n_out):
                if not free_out[j]:
                    continue
                candidates = [i for i in range(n_in) if free_in[i] and requests[i][j]]
                if not candidates:
                    continue
                winner = candidates[int(self.rng.integers(0, len(candidates)))]
                grants.setdefault(winner, []).append(j)
            for i, granted in grants.items():
                j = granted[int(self.rng.integers(0, len(granted)))]
                pairs.append((i, j))
                free_in[i] = False
                free_out[j] = False
            if not grants:
                break
        return pairs


class OracleIslip:
    def __init__(self, iterations):
        self.iterations = iterations
        self.grant_ptr = None
        self.accept_ptr = None

    def match(self, requests):
        n_in, n_out = requests.shape
        if self.grant_ptr is None:
            self.grant_ptr = np.zeros(n_out, dtype=int)
            self.accept_ptr = np.zeros(n_in, dtype=int)
        free_in = np.ones(n_in, dtype=bool)
        free_out = np.ones(n_out, dtype=bool)
        pairs = []
        for it in range(self.iterations):
            grants = {}
            for j in range(n_out):
                if not free_out[j]:
                    continue
                ptr = self.grant_ptr[j]
                for i in [(ptr + k) % n_in for k in range(n_in)]:
                    if free_in[i] and requests[i][j]:
                        grants.setdefault(i, []).append(j)
                        break
            for i, granted in grants.items():
                ptr = self.accept_ptr[i]
                j = min(granted, key=lambda jj: (jj - ptr) % n_out)
                pairs.append((i, j))
                free_in[i] = False
                free_out[j] = False
                if it == 0:
                    self.grant_ptr[j] = (i + 1) % n_in
                    self.accept_ptr[i] = (j + 1) % n_out
            if not grants:
                break
        return pairs


class Oracle2DRR:
    def __init__(self):
        self.slot = 0

    def match(self, requests):
        n_in, n_out = requests.shape
        n = max(n_in, n_out)
        free_in = np.ones(n_in, dtype=bool)
        free_out = np.ones(n_out, dtype=bool)
        pairs = []
        first = self.slot % n
        for step in range(n):
            d = (first + step) % n
            for i in range(n_in):
                j = (i + d) % n
                if j < n_out and free_in[i] and free_out[j] and requests[i][j]:
                    pairs.append((i, j))
                    free_in[i] = False
                    free_out[j] = False
        self.slot += 1
        return pairs


SHAPES = [(1, 1), (2, 2), (3, 3), (8, 8), (16, 16), (3, 5), (5, 3)]
SLOTS = 500


def _request_sequence(n_in, n_out, seed):
    """SLOTS random request matrices, densities from nearly empty to full."""
    rng = np.random.default_rng(seed)
    for _ in range(SLOTS):
        yield rng.random((n_in, n_out)) < rng.choice([0.05, 0.2, 0.5, 0.8, 1.0])


def _cols(requests):
    return [sum(1 << int(i) for i in np.flatnonzero(col)) for col in requests.T]


def _drive(oracle, sched, shape, seed, carried):
    n_in, n_out = shape
    for slot, requests in enumerate(_request_sequence(n_in, n_out, seed)):
        want = oracle.match(requests)
        got = sched.match_masks(_cols(requests), n_in, n_out)
        assert got == want, f"slot {slot}: {got} != {want}"
        _check_matching(requests, got)
        carried(oracle, sched, slot)


@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("iterations", [1, 2, 3, 4])
def test_pim_masks_equal_oracle_and_draw_order(shape, iterations):
    def same_stream(oracle, sched, slot):
        assert sched.rng.bit_generator.state == oracle.rng.bit_generator.state, slot

    _drive(OraclePIM(iterations, seed=11), PIM(iterations, seed=11), shape,
           seed=100 + iterations, carried=same_stream)


@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("iterations", [1, 2, 3, 4])
def test_islip_masks_equal_oracle_and_pointers(shape, iterations):
    def same_pointers(oracle, sched, slot):
        assert sched._grant_ptr == oracle.grant_ptr.tolist(), slot
        assert sched._accept_ptr == oracle.accept_ptr.tolist(), slot

    _drive(OracleIslip(iterations), Islip(iterations), shape,
           seed=200 + iterations, carried=same_pointers)


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_2drr_masks_equal_oracle_and_rotation(shape):
    def same_rotation(oracle, sched, slot):
        assert sched._slot == oracle.slot, slot

    _drive(Oracle2DRR(), TwoDimRoundRobin(), shape, seed=300,
           carried=same_rotation)


@pytest.mark.parametrize("seed", [0, 1, 7, 2**40])
@pytest.mark.parametrize("draw", ["integers(0, 1)", "permutation(1)"])
def test_single_outcome_draws_leave_generator_state(seed, draw):
    """The single-candidate shortcuts of the PIM, FIFO, speedup and shared
    arbiters skip these calls; that keeps the random stream only because
    numpy consumes nothing for a draw with one possible outcome."""
    rng = np.random.default_rng(seed)
    rng.integers(0, 5, size=3)  # start from a mid-stream state
    before = rng.bit_generator.state
    if draw == "integers(0, 1)":
        assert rng.integers(0, 1) == 0
    else:
        assert rng.permutation(1).tolist() == [0]
    assert rng.bit_generator.state == before
