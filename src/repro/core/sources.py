"""Word-level packet sources and sinks for the pipelined-memory switch.

A word-level source is polled once per cycle per *idle* input link; it either
starts a new packet (whose head word arrives that cycle, followed by one word
per cycle) or stays quiet.  The renewal source reproduces the traffic model
of the paper's §3.4 analysis: a packet head appears on a given link in a
given cycle with unconditional probability ``p / B`` at link load ``p``
(packet size ``B`` words).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import lru_cache

import numpy as np


from repro.sim.rng import make_rng, spawn
from repro.traffic.base import TrafficSource

_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_U64 = 0xFFFFFFFFFFFFFFFF


@lru_cache(maxsize=64)
def _lcg_jump_coefficients(size: int) -> tuple[np.ndarray, np.ndarray]:
    """(mult, add) with ``x_k = mult[k-1] * x_0 + add[k-1] (mod 2**64)``.

    Closed-form LCG jumping: applying ``x -> M*x + C`` ``k`` times is itself
    affine, so the whole per-word recurrence collapses to one vectorized
    multiply-add over precomputed coefficient arrays.
    """
    mult = np.empty(size, dtype=np.uint64)
    add = np.empty(size, dtype=np.uint64)
    m, a = 1, 0
    for k in range(size):
        m = (m * _LCG_MULT) & _U64
        a = (a * _LCG_MULT + _LCG_INC) & _U64
        mult[k] = m
        add[k] = a
    return mult, add


@lru_cache(maxsize=65536)
def deterministic_payload(uid: int, size: int, width_bits: int = 16) -> tuple[int, ...]:
    """Pseudo-random but uid-reproducible payload words (for integrity checks).

    This sits on the word-level hot path — called once per injected packet
    and again wherever a sink re-derives the expected payload — so it is
    memoized and the per-word LCG loop is replaced by a single vectorized
    jump over precomputed coefficients (bit-identical to the scalar
    recurrence; ``tests/core/test_sources.py`` pins the values).

    The memo is **deliberately process-global and snapshot-safe**: the
    function is pure (the payload depends only on ``(uid, size,
    width_bits)``), so cache warmth can never change a value — running two
    simulations back-to-back in one process, clearing the cache mid-run, or
    restoring a checkpoint into a cold process all yield bit-identical
    payloads.  :mod:`repro.checkpoint` relies on this to store only packet
    uids and re-derive payloads on restore
    (``tests/checkpoint/test_payload_cache.py`` pins the contract).
    """
    mask = (1 << width_bits) - 1
    x0 = (uid * 2654435761 + 0x9E3779B9) & 0xFFFFFFFF
    mult, add = _lcg_jump_coefficients(size)
    x = mult * np.uint64(x0) + add  # uint64 arithmetic wraps mod 2**64
    words = (x >> np.uint64(17)) & np.uint64(mask)
    return tuple(words.tolist())


class PacketSource(ABC):
    """Per-input-link packet injector."""

    def __init__(self, n_out: int, packet_words: int, width_bits: int = 16) -> None:
        self.n_out = n_out
        self.packet_words = packet_words
        self.width_bits = width_bits

    @abstractmethod
    def maybe_start(self, cycle: int, link: int) -> int | None:
        """Destination of a packet whose head arrives this cycle, or None.

        Called exactly once per cycle per idle link, in increasing cycle
        order.  (The switch builds the actual :class:`Packet`.)
        """


class RenewalPacketSource(PacketSource):
    """Geometric-gap renewal process per link, matching §3.4's assumptions.

    After a packet's tail (or initially), each idle cycle starts a new packet
    with probability ``q = p / (B - (B-1)p)``, which makes the long-run link
    load (fraction of cycles carrying a word) equal ``p`` and the
    unconditional head probability ``p/B``.  Destinations are uniform.
    """

    def __init__(
        self,
        n_out: int,
        packet_words: int,
        load: float,
        width_bits: int = 16,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__(n_out, packet_words, width_bits)
        if not 0.0 <= load <= 1.0:
            raise ValueError(f"load must be in [0, 1], got {load}")
        self.load = load
        b = packet_words
        denom = b - (b - 1) * load
        self.start_prob = load / denom if denom > 0 else 1.0
        self.rng = make_rng(seed)

    def maybe_start(self, cycle: int, link: int) -> int | None:
        if self.rng.random() < self.start_prob:
            return int(self.rng.integers(0, self.n_out))
        return None


class BatchRenewalSource(PacketSource):
    """Renewal traffic with *independent per-link streams*, batch-drawable.

    Statistically the same §3.4 geometric-gap process as
    :class:`RenewalPacketSource`, but each link owns a private generator
    pair (one stream for the start/idle coin flips, one for destinations),
    spawned deterministically from ``seed``.  That independence is what
    makes the process *batchable*: a whole window of per-link poll outcomes
    can be drawn as one numpy block, and — because a numpy ``Generator``
    produces bit-identical values whether drawn one at a time or as an
    array — the block-drawn tape equals the scalar per-cycle poll sequence
    exactly.  The batch kernel consumes the tape; the checked kernel
    calls :meth:`maybe_start` per cycle; on the same seed both see the
    identical arrival process.

    Note the streams *differ* from ``RenewalPacketSource`` at equal seed
    (that source interleaves every link through one shared generator, which
    is inherently order-sensitive and unbatchable); equivalence tests
    compare kernels, each given its own ``BatchRenewalSource``.
    """

    def __init__(
        self,
        n_out: int,
        packet_words: int,
        load: float,
        width_bits: int = 16,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__(n_out, packet_words, width_bits)
        if not 0.0 <= load <= 1.0:
            raise ValueError(f"load must be in [0, 1], got {load}")
        self.load = load
        b = packet_words
        denom = b - (b - 1) * load
        self.start_prob = load / denom if denom > 0 else 1.0
        children = spawn(make_rng(seed), 2 * n_out)
        self._u_rng = children[0::2]  # per-link start coin flips
        self._d_rng = children[1::2]  # per-link destination draws
        # Tape state, per link: poll outcomes drawn but not yet consumed.
        # ``_tape_cycle[i]`` is the absolute cycle of each buffered poll
        # (a hit makes the link busy for exactly ``packet_words`` cycles,
        # a miss re-polls next cycle, so the schedule is self-determined);
        # ``_tape_dst[i]`` holds the destination, or -1 for a miss.
        self._tape_cycle: list[np.ndarray] = [
            np.empty(0, dtype=np.int64) for _ in range(n_out)
        ]
        self._tape_dst: list[np.ndarray] = [
            np.empty(0, dtype=np.int64) for _ in range(n_out)
        ]
        self._next_draw = [0] * n_out  # cycle of each link's first undrawn poll
        # The tape's re-draw recipe, per link: one ``(u state, d state,
        # polls)`` entry per block drawn since the oldest block still on
        # the tape, each with the generator states read just before it was
        # drawn.  A checkpoint stores this instead of the tape
        # (:mod:`repro.checkpoint`).  Entries with ``None`` states are
        # polls restored literally from a document that stored the tape.
        self._blocks: list[list[tuple[dict | None, dict | None, int]]] = [
            [] for _ in range(n_out)
        ]

    # -- scalar protocol (checked kernel) ------------------------------------
    def maybe_start(self, cycle: int, link: int) -> int | None:
        if self._u_rng[link].random() < self.start_prob:
            return int(self._d_rng[link].integers(0, self.n_out))
        return None

    # -- batch protocol (batch kernel) --------------------------------------
    #: minimum polls drawn per extension — tiny batch windows would otherwise
    #: pay a fresh numpy block-draw per link per window; over-drawn outcomes
    #: stay buffered on the tape and the stream order is unchanged (a
    #: Generator yields the same sequence however the draws are blocked)
    _LOOKAHEAD = 4096

    def _extend(self, link: int, horizon: int) -> None:
        """Draw polls for ``link`` until its tape covers cycles < horizon.

        A block holds enough polls to reach ``horizon`` if all hit (a hit
        advances the link W cycles, a miss one), so a long window at high
        load does not over-draw the tape W-fold; a shortfall draws again.
        Blocks handed out in full leave the re-draw recipe first.
        """
        w = self.packet_words
        blocks = self._blocks[link]
        while self._next_draw[link] < horizon:
            unread = self._tape_cycle[link].shape[0]
            while blocks and sum(b[2] for b in blocks[1:]) >= unread:
                del blocks[0]
            start = self._next_draw[link]
            self._draw(link, max((horizon - start) // w + 1, self._LOOKAHEAD))

    def _draw(self, link: int, count: int) -> None:
        """Append ``count`` polls to ``link``'s tape from its first undrawn
        cycle, recording the generator states they are drawn from.

        One block of coin flips and one of destinations consume both
        streams in exactly the scalar per-poll order.
        """
        u_rng, d_rng = self._u_rng[link], self._d_rng[link]
        self._blocks[link].append(
            (u_rng.bit_generator.state, d_rng.bit_generator.state, count))
        w = self.packet_words
        start = self._next_draw[link]
        u = u_rng.random(count)
        hits = u < self.start_prob
        steps = np.where(hits, np.int64(w), np.int64(1))
        cycles = start + np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(steps[:-1]))
        )
        dsts = np.full(count, -1, dtype=np.int64)
        n_hits = int(np.count_nonzero(hits))
        if n_hits:
            dsts[hits] = d_rng.integers(0, self.n_out, size=n_hits)
        self._tape_cycle[link] = np.concatenate((self._tape_cycle[link], cycles))
        self._tape_dst[link] = np.concatenate((self._tape_dst[link], dsts))
        self._next_draw[link] = start + int(steps.sum())

    def batch_arrivals(
        self, start: int, stop: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Packet starts with head cycle in ``[start, stop)``.

        Returns ``(cycles, links, dsts)`` sorted by ``(cycle, link)`` — the
        order the kernels' arrival phase visits the input links.  Consumed
        windows must be requested in increasing, non-overlapping cycle
        order (each poll outcome is handed out exactly once).
        """
        all_c: list[np.ndarray] = []
        all_l: list[np.ndarray] = []
        all_d: list[np.ndarray] = []
        for link in range(self.n_out):
            self._extend(link, stop)
            tape_c = self._tape_cycle[link]
            cut = int(np.searchsorted(tape_c, stop, side="left"))
            if cut:
                c = tape_c[:cut]
                d = self._tape_dst[link][:cut]
                self._tape_cycle[link] = tape_c[cut:]
                self._tape_dst[link] = self._tape_dst[link][cut:]
                hit = d >= 0
                if hit.any():
                    all_c.append(c[hit])
                    all_l.append(np.full(int(hit.sum()), link, dtype=np.int64))
                    all_d.append(d[hit])
        if not all_c:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty
        cycles = np.concatenate(all_c)
        links = np.concatenate(all_l)
        dsts = np.concatenate(all_d)
        order = np.lexsort((links, cycles))
        return cycles[order], links[order], dsts[order]

    #: windows at or below this many cycles skip the numpy slice/lexsort
    #: round trip — a degenerate window (batch_cycles=1) holds at most a
    #: few polls per link, where scalar extraction is an order of magnitude
    #: cheaper than array surgery
    _SCALAR_WINDOW = 64

    def window_arrivals(
        self, start: int, stop: int
    ) -> tuple[list[int], list[int], list[int]]:
        """:meth:`batch_arrivals` as plain lists, cheap for tiny windows.

        Same consumption contract and the same ``(cycle, link)`` order;
        the two paths may be mixed freely across windows.
        """
        if stop - start > self._SCALAR_WINDOW:
            c, l, d = self.batch_arrivals(start, stop)
            return c.tolist(), l.tolist(), d.tolist()
        items: list[tuple[int, int, int]] = []
        next_draw = self._next_draw
        tapes_c, tapes_d = self._tape_cycle, self._tape_dst
        for link in range(self.n_out):
            if next_draw[link] < stop:
                self._extend(link, stop)
            tape_c = tapes_c[link]
            if not tape_c.shape[0] or tape_c[0] >= stop:
                continue
            tape_d = tapes_d[link]
            k, m = 0, tape_c.shape[0]
            while k < m and tape_c[k] < stop:
                if tape_d[k] >= 0:
                    items.append((int(tape_c[k]), link, int(tape_d[k])))
                k += 1
            self._tape_cycle[link] = tape_c[k:]
            self._tape_dst[link] = tape_d[k:]
        items.sort()
        return ([c for c, _, _ in items], [li for _, li, _ in items],
                [d for _, _, d in items])

    def resume_idle(self, cycle: int) -> None:
        """Re-anchor every link's tape to poll next at ``cycle``.

        After a muted drain no link polled (no stream was consumed), and
        all links are idle, so each link's first still-buffered outcome
        applies at ``cycle`` — only the cycle labels shift.
        """
        for link in range(self.n_out):
            tape_c = self._tape_cycle[link]
            first = int(tape_c[0]) if tape_c.size else self._next_draw[link]
            if cycle > first:
                self.delay_link(link, cycle - first)

    def delay_link(self, link: int, cycles: int) -> None:
        """Shift every poll of ``link`` not yet handed out ``cycles`` later.

        The per-link form of :meth:`resume_idle`: a link that stopped
        polling (credit-muted) and resumes ``cycles`` later consumes the
        same outcomes, only at later cycle labels.
        """
        self._tape_cycle[link] += cycles
        self._next_draw[link] += cycles


class SaturatingSource(PacketSource):
    """Always has a packet ready (back-to-back): offered load 1.0.

    ``dests`` may fix the destination pattern per link; default uniform
    random.  Used by saturation and deadline-invariant tests.
    """

    def __init__(
        self,
        n_out: int,
        packet_words: int,
        dests: list[int] | None = None,
        width_bits: int = 16,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__(n_out, packet_words, width_bits)
        self.dests = dests
        self.rng = make_rng(seed)

    def maybe_start(self, cycle: int, link: int) -> int | None:
        if self.dests is not None:
            return self.dests[link % len(self.dests)]
        return int(self.rng.integers(0, self.n_out))


class TracePacketSource(PacketSource):
    """Scripted packet starts: ``schedule[link]`` is a list of
    ``(earliest_cycle, dst)`` items, injected in order as the link frees up."""

    def __init__(
        self,
        n_out: int,
        packet_words: int,
        schedule: dict[int, list[tuple[int, int]]],
        width_bits: int = 16,
    ) -> None:
        super().__init__(n_out, packet_words, width_bits)
        self.schedule = {link: list(items) for link, items in schedule.items()}
        self._next_idx = {link: 0 for link in schedule}

    def maybe_start(self, cycle: int, link: int) -> int | None:
        items = self.schedule.get(link)
        if not items:
            return None
        idx = self._next_idx[link]
        if idx >= len(items):
            return None
        earliest, dst = items[idx]
        if cycle >= earliest:
            self._next_idx[link] = idx + 1
            return dst
        return None

    def exhausted(self) -> bool:
        return all(
            self._next_idx[link] >= len(items)
            for link, items in self.schedule.items()
        )


class SlotAdapterSource(PacketSource):
    """Adapts a slotted :class:`~repro.traffic.base.TrafficSource`.

    Slot ``s`` of the slotted source corresponds to cycles
    ``[s*B, (s+1)*B)``: a cell arriving in slot ``s`` on link ``i`` becomes a
    ``B``-word packet whose head arrives at cycle ``s*B`` (arrivals are
    slot-synchronized — useful for apples-to-apples integration tests against
    the slot-level :class:`~repro.switches.shared_memory.SharedBuffer`).
    """

    def __init__(
        self, slotted: TrafficSource, packet_words: int, width_bits: int = 16
    ) -> None:
        super().__init__(slotted.n_out, packet_words, width_bits)
        self.slotted = slotted
        self._slot = -1
        self._current: list[int | None] = [None] * slotted.n_in

    def maybe_start(self, cycle: int, link: int) -> int | None:
        slot, phase = divmod(cycle, self.packet_words)
        if phase != 0:
            return None
        if slot != self._slot:
            self._slot = slot
            self._current = self.slotted.arrivals(slot)
        dst = self._current[link]
        self._current[link] = None  # consume
        return dst


class PacketSink:
    """Reassembles and verifies the word stream of one outgoing link.

    Checks (all raise on violation — these are the E15 functional assertions):

    * words of one packet arrive on consecutive cycles (no gaps inside a
      packet: the output link would have emitted garbage otherwise);
    * word indices run 0..B-1 in order;
    * payload equals what the source injected (checked by the switch, which
      knows the sent packets).
    """

    def __init__(self, link: int, packet_words: int) -> None:
        self.link = link
        self.packet_words = packet_words
        self.delivered: list[tuple[int, int, tuple[int, ...]]] = []
        # in-progress reassembly
        self._uid: int | None = None
        self._words: list[int] = []
        self._last_cycle = -2
        self._head_cycle = -1

    def deliver(self, cycle: int, packet_uid: int, index: int, payload: int) -> None:
        if self._uid is None:
            if index != 0:
                raise AssertionError(
                    f"output {self.link}: packet {packet_uid} started with "
                    f"word {index}, expected 0"
                )
            self._uid = packet_uid
            self._head_cycle = cycle
            self._words = [payload]
        else:
            if packet_uid != self._uid:
                raise AssertionError(
                    f"output {self.link}: word of packet {packet_uid} "
                    f"interleaved into packet {self._uid}"
                )
            if index != len(self._words):
                raise AssertionError(
                    f"output {self.link}: packet {packet_uid} word {index} "
                    f"out of order (expected {len(self._words)})"
                )
            if cycle != self._last_cycle + 1:
                raise AssertionError(
                    f"output {self.link}: gap inside packet {packet_uid} "
                    f"(cycle {cycle} after {self._last_cycle})"
                )
            self._words.append(payload)
        self._last_cycle = cycle
        if len(self._words) == self.packet_words:
            self.delivered.append((self._uid, self._head_cycle, tuple(self._words)))
            self._uid = None
            self._words = []

    @property
    def mid_packet(self) -> bool:
        return self._uid is not None
