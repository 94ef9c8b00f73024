"""Crossbar schedulers for non-FIFO input buffering (VOQ) switches.

The paper's section 2.1 notes that dropping the FIFO restriction removes
head-of-line blocking but requires "a more complicated scheduler, because now
the scheduling of each output depends on the scheduling of the other
outputs".  The schedulers studied in the papers it cites are implemented
here:

* :class:`PIM` — Parallel Iterative Matching of [AOST93] (the DEC AN2
  scheduler): rounds of random propose/grant/accept.
* :class:`Islip` — round-robin pointer variant (SLIP, also from the AN2 line
  of work); avoids PIM's randomness and unfairness.
* :class:`TwoDimRoundRobin` — the 2DRR scheduler of [LaSe95]: generalized
  diagonals of the request matrix scanned in a rotating order.
* :class:`GreedyMaximal` — sequential random-order maximal matching
  (an idealized, centralized contender).
* :class:`MaxSizeMatching` — exact maximum-size bipartite matching
  (Hopcroft–Karp); an upper bound no hardware scheduler achieves per-slot.

All schedulers consume per-output request masks, as the Tiny Tera iSLIP
does with its request bit vectors: bit ``i`` of ``cols[j]`` means "input i
has at least one cell for output j".  They return a conflict-free matching
as a list of ``(input, output)`` pairs.  :meth:`Scheduler.match` adapts a
boolean request matrix ``requests[i][j]`` to that form.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.sim.rng import make_rng


def _pick(mask: int, integers) -> int:
    """A uniformly random set bit of nonzero ``mask``: one ``integers(0, k)``
    draw over its ``k`` set bits, lowest first, and no draw for one bit."""
    if mask & (mask - 1):
        for _ in range(int(integers(0, mask.bit_count()))):
            mask &= mask - 1  # drop the lowest set bit
    return (mask & -mask).bit_length() - 1


def _first_from(mask: int, ptr: int) -> int:
    """Index of the first set bit of nonzero ``mask`` at or after ``ptr``,
    wrapping around to bit 0."""
    high = mask >> ptr << ptr or mask
    return (high & -high).bit_length() - 1


class Scheduler(ABC):
    """Computes one crossbar matching per slot from request masks."""

    name = "abstract"

    @abstractmethod
    def match_masks(self, cols: list[int], n_in: int, n_out: int) -> list[tuple[int, int]]:
        """Return a matching (no input or output repeated) within ``cols``."""

    def match(self, requests: np.ndarray) -> list[tuple[int, int]]:
        """Match a boolean ``(n_in, n_out)`` request matrix."""
        requests = np.asarray(requests, dtype=bool)
        if requests.ndim != 2:
            raise ValueError(f"request matrix must be 2-D, got shape {requests.shape}")
        n_in, n_out = requests.shape
        cols = [sum(1 << i for i in np.flatnonzero(col).tolist())
                for col in requests.T]
        return self.match_masks(cols, n_in, n_out)


class PIM(Scheduler):
    """Parallel Iterative Matching [AOST93].

    Each iteration: every unmatched input sends a request to every output it
    has traffic for; every unmatched output *grants* one request uniformly at
    random; every input *accepts* one grant uniformly at random.  [AOST93]
    showed that ``log2(n) + 3/4`` iterations resolve almost all requests;
    the default of 4 iterations matches the AN2 hardware.

    Outputs grant in ascending order, each with one ``integers(0, k)`` draw
    over its ``k`` free requesters (lowest input first); inputs then accept
    in the order of their first grant, each with one draw over its granting
    outputs (lowest first).  A single candidate takes no draw:
    ``integers(0, 1)`` leaves the generator state unchanged.
    """

    def __init__(self, iterations: int = 4, seed=None) -> None:
        if iterations < 1:
            raise ValueError(f"need >= 1 iteration, got {iterations}")
        self.iterations = iterations
        self.rng = make_rng(seed)
        self.name = f"PIM-{iterations}"

    def match_masks(self, cols: list[int], n_in: int, n_out: int) -> list[tuple[int, int]]:
        integers = self.rng.integers
        free_in = (1 << n_in) - 1
        outs = [j for j in range(n_out) if cols[j]]  # free outputs with requests
        pairs: list[tuple[int, int]] = []
        for _ in range(self.iterations):
            # Grant phase: each free output grants one free requesting input.
            grants: dict[int, int] = {}  # input -> mask of granting outputs
            for j in outs:
                cand = cols[j] & free_in
                if cand:
                    i = _pick(cand, integers)
                    grants[i] = grants.get(i, 0) | 1 << j
            if not grants:
                break
            # Accept phase: each input accepts one grant.
            for i, granted in grants.items():
                j = _pick(granted, integers)
                pairs.append((i, j))
                free_in ^= 1 << i
                outs.remove(j)
        return pairs


class Islip(Scheduler):
    """Round-robin iterative matching (iSLIP).

    Outputs grant the requesting input nearest (cyclically) to their grant
    pointer; inputs accept the granting output nearest to their accept
    pointer.  Pointers advance one past the chosen partner, only when the
    grant is accepted and only in the first iteration — the combination that
    gives iSLIP its 100 %-throughput-under-uniform-traffic behaviour.
    """

    def __init__(self, iterations: int = 4) -> None:
        if iterations < 1:
            raise ValueError(f"need >= 1 iteration, got {iterations}")
        self.iterations = iterations
        self._grant_ptr: list[int] = []
        self._accept_ptr: list[int] = []
        self.name = f"iSLIP-{iterations}"

    def match_masks(self, cols: list[int], n_in: int, n_out: int) -> list[tuple[int, int]]:
        if len(self._grant_ptr) != n_out or len(self._accept_ptr) != n_in:
            self._grant_ptr = [0] * n_out
            self._accept_ptr = [0] * n_in
        grant_ptr, accept_ptr = self._grant_ptr, self._accept_ptr
        free_in = (1 << n_in) - 1
        outs = [j for j in range(n_out) if cols[j]]  # free outputs with requests
        pairs: list[tuple[int, int]] = []
        for it in range(self.iterations):
            grants: dict[int, int] = {}  # input -> mask of granting outputs
            for j in outs:
                cand = cols[j] & free_in
                if cand:
                    i = _first_from(cand, grant_ptr[j])
                    grants[i] = grants.get(i, 0) | 1 << j
            if not grants:
                break
            for i, granted in grants.items():
                j = _first_from(granted, accept_ptr[i])
                pairs.append((i, j))
                free_in ^= 1 << i
                outs.remove(j)
                if it == 0:
                    grant_ptr[j] = (i + 1) % n_in
                    accept_ptr[i] = (j + 1) % n_out
        return pairs


class TwoDimRoundRobin(Scheduler):
    """Two-Dimensional Round-Robin scheduler [LaSe95].

    The request matrix's ``n`` generalized diagonals (pairs ``(i, (i+d) mod
    n)``) are scanned in an order that rotates from slot to slot, granting
    every requested pair on a diagonal whose input and output are still free.
    Fair and simple — implementable as ``n`` wired patterns — at some cost in
    matching quality versus PIM/iSLIP.
    """

    def __init__(self) -> None:
        self._slot = 0
        self.name = "2DRR"

    def match_masks(self, cols: list[int], n_in: int, n_out: int) -> list[tuple[int, int]]:
        n = max(n_in, n_out)
        free_in = 0  # free inputs with at least one request
        for col in cols:
            free_in |= col
        free_out = (1 << n_out) - 1
        pairs: list[tuple[int, int]] = []
        first = self._slot % n
        self._slot += 1
        for step in range(n):
            d = (first + step) % n
            rest = free_in
            while rest:
                bit = rest & -rest
                rest ^= bit
                i = bit.bit_length() - 1
                j = (i + d) % n
                if j < n_out and cols[j] & bit and free_out >> j & 1:
                    pairs.append((i, j))
                    free_in ^= bit
                    free_out ^= 1 << j
        return pairs


class GreedyMaximal(Scheduler):
    """Sequential random-order maximal matching (centralized idealization)."""

    def __init__(self, seed=None) -> None:
        self.rng = make_rng(seed)
        self.name = "greedy-maximal"

    def match_masks(self, cols: list[int], n_in: int, n_out: int) -> list[tuple[int, int]]:
        edges = [(i, j) for i in range(n_in) for j in range(n_out)
                 if cols[j] >> i & 1]
        self.rng.shuffle(edges)
        free_in = (1 << n_in) - 1
        free_out = (1 << n_out) - 1
        pairs: list[tuple[int, int]] = []
        for i, j in edges:
            if free_in >> i & 1 and free_out >> j & 1:
                pairs.append((i, j))
                free_in &= ~(1 << i)
                free_out &= ~(1 << j)
        return pairs


class MaxSizeMatching(Scheduler):
    """Exact maximum-size bipartite matching via Hopcroft–Karp (networkx).

    A per-slot upper bound on any practical scheduler; used by tests to bound
    the others and by the E4 bench as the "perfect scheduler" series.
    """

    def __init__(self) -> None:
        self.name = "max-size"

    def match_masks(self, cols: list[int], n_in: int, n_out: int) -> list[tuple[int, int]]:
        import networkx as nx  # deferred: heavy import, only needed here

        g = nx.Graph()
        g.add_nodes_from(("in", i) for i in range(n_in))
        g.add_nodes_from(("out", j) for j in range(n_out))
        g.add_edges_from(
            (("in", i), ("out", j))
            for i in range(n_in)
            for j in range(n_out)
            if cols[j] >> i & 1
        )
        top = [("in", i) for i in range(n_in)]
        matching = nx.bipartite.hopcroft_karp_matching(g, top_nodes=top)
        return sorted(
            (node[1], partner[1])
            for node, partner in matching.items()
            if node[0] == "in"
        )
