"""Array-batched kernel for the pipelined-memory switch.

Accelerated tier beside the oracle.  The checked
:class:`~repro.core.switch.PipelinedSwitch` moves every word through latch,
bus and bank objects and executes one interpreted step per cycle;
:class:`BatchPipelinedSwitch` collapses each wave's word-level
consequences to arithmetic and removes the per-cycle step itself.  It
advances the switch in *cycle batches*:

* **Vectorized arrival ingestion** — the packet source is consumed as a
  *tape*: a whole window of per-link poll outcomes drawn as numpy blocks
  (:class:`~repro.core.sources.BatchRenewalSource`, or the internal
  saturating adapter).  Because a numpy ``Generator`` yields bit-identical
  values whether drawn scalar or as an array, the tape equals the per-cycle
  poll sequence of the checked kernel exactly.
* **Event-driven cycle skipping** — with the window's arrivals known in
  advance, the kernel only executes cycles on which the machine can act
  (an arrival, a due buffer release or credit return, an eligible pending
  store, an eligible queued read, a store completion under
  store-and-forward, a reserved chain slot or quantum-boundary check, a
  telemetry sampling instant).  Idle spans between them are accounted in
  closed form.
* **Batched statistics and telemetry** — per-cycle collection is replaced
  by batch-granularity accounting.  Departures apply inline, in the
  checked kernel's exact order (Welford accumulators are order-sensitive,
  so the order is part of the contract); those that straddle a window
  wait on a pending deque.  Metrics settle once per flush from per-window
  aggregates: counter deltas, per-port counts, and one weighted histogram
  observation per distinct latency.  Only an event channel (an event log
  or sampled tracing) keeps per-window logs of wave admissions and
  arrivals; the flush then replays the full ARRIVE/STORE_WAVE/CUT_THROUGH/
  READ_WAVE/DEPART/drop event stream from them, departures included.
* **Scalar fallback across intra-window dependencies** — arbitration
  decisions feed each other (a read at ``t`` changes what is eligible at
  ``t+1``), so decision resolution stays sequential; everything around it
  is batched.
* **One window engine for every shape** — any port count, multi-quantum
  chains, store-and-forward, input credit flow, telemetry on or off.
  Per-output state is mirrored in bitmasks, and each feature a shape may
  lack sits behind a hoisted flag or next-event sentinel, so the common
  single-quantum, cut-through, uncredited, telemetry-off shape pays one
  test per feature.
* **Input credits as a delayed token stream** — a credit returns a known
  ``W - 1`` cycles after the wave that frees it starts, so the engine sees
  it ahead.  A link that runs out of credit is checked at its next poll;
  if still empty it is muted, and when the credit returns the rest of its
  arrivals shift by the wait (its tape in ``BatchRenewalSource``).  Window
  arrivals are diverted lazily, as the loop reaches them, so a mute or
  resume costs the same at every window size.

The correctness contract is the equivalence matrix
(``tests/core/test_batchpath.py``): checked == batch, bit for bit, on
statistics, wave counters, latency accumulators and telemetry streams.
Configurations this kernel does not replicate exactly — non-READS_FIRST
arbitration, per-cycle sources it cannot tape, the saturating tape under
credit flow (its links share one stream, so muting one would reorder the
draws), an attached runtime sanitizer — are named by :func:`batch_refusal`
and refused via :func:`reject_unsupported`, never approximated; they run
on the checked kernel.
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heapify, heappop, heappush
from typing import Protocol, cast

import numpy as np

from repro.core.arbiter import Priority
from repro.core.errors import ConfigError
from repro.core.instrumentation import SwitchTelemetryMixin
from repro.core.sources import BatchRenewalSource, PacketSource, SaturatingSource
from repro.core.switch import (
    DeadlineMissedError,
    PipelinedSwitch,
    PipelinedSwitchConfig,
)
from repro.drc.sanitizer import Sanitizer
from repro.sim.stats import Counter, Histogram, SwitchStats
from repro.telemetry import (
    ARRIVE,
    CUT_THROUGH,
    DEPART,
    DROP_HEAD_OVERRUN,
    DROP_POLICY,
    DROP_QUANTUM_OVERRUN,
    READ_WAVE,
    STORE_WAVE,
    Telemetry,
)

_KERNEL = "batch path"
DEFAULT_BATCH_CYCLES = 4096

# Wave-log kind codes (int-coded for compactness; decoded at flush time).
_STORE, _CT, _READ = 0, 1, 2
_WAVE_KIND = (STORE_WAVE, CUT_THROUGH, READ_WAVE)
_DROP_CAUSE = (DROP_HEAD_OVERRUN, DROP_QUANTUM_OVERRUN, DROP_POLICY)
_HEAD, _QUANTUM, _POLICY = 0, 1, 2


class FastPathUnsupportedError(ConfigError):
    """The batch kernel does not model this configuration; use the checked
    :class:`~repro.core.switch.PipelinedSwitch` instead."""


def reject_unsupported(kernel: str, reason: str) -> FastPathUnsupportedError:
    """Uniform refuse-don't-approximate error for the batch kernel.

    The batch kernel trades generality for speed; any configuration it
    does not replicate *exactly* must be refused, not approximated.
    Routing every refusal through this helper keeps the message shape (and
    the exception type tests rely on) identical across unsupported-config
    branches.
    """
    return FastPathUnsupportedError(
        f"{kernel} does not model this configuration: {reason} — "
        f"run it on the checked PipelinedSwitch"
    )


class ArrivalTape(Protocol):
    """Window-batched view of a packet source (see BatchRenewalSource):
    the two calls the kernel makes."""

    def window_arrivals(
        self, start: int, stop: int
    ) -> tuple[list[int], list[int], list[int]]: ...

    def resume_idle(self, cycle: int) -> None: ...


class _SaturatingTape:
    """Tape adapter for :class:`~repro.core.sources.SaturatingSource`.

    Under saturation every poll starts a packet, so every link polls at
    ``first, first + W, first + 2W, ...`` and all links stay synchronized.
    Destinations are drawn from the source's own generator in row-major
    (cycle, link) order — exactly the scalar per-poll draw order — so the
    adapter consumes the *same* ``SaturatingSource`` stream the checked
    kernel would.
    """

    def __init__(self, source: SaturatingSource) -> None:
        self.source = source
        self._next_poll = 0

    def batch_arrivals(
        self, start: int, stop: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        src = self.source
        n = src.n_out
        w = src.packet_words
        first = self._next_poll
        if first >= stop:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty
        rounds = (stop - 1 - first) // w + 1
        poll_cycles = first + w * np.arange(rounds, dtype=np.int64)
        cycles = np.repeat(poll_cycles, n)
        links = np.tile(np.arange(n, dtype=np.int64), rounds)
        if src.dests is not None:
            pattern = np.array(
                [src.dests[i % len(src.dests)] for i in range(n)],
                dtype=np.int64,
            )
            dsts = np.tile(pattern, rounds)
        else:
            dsts = src.rng.integers(0, n, size=rounds * n).astype(np.int64)
        self._next_poll = first + rounds * w
        return cycles, links, dsts

    def window_arrivals(
        self, start: int, stop: int
    ) -> tuple[list[int], list[int], list[int]]:
        if self._next_poll >= stop:  # mid-packet window: no polls at all
            return [], [], []
        c, l, d = self.batch_arrivals(start, stop)
        return c.tolist(), l.tolist(), d.tolist()

    def resume_idle(self, cycle: int) -> None:
        if cycle > self._next_poll:
            self._next_poll = cycle


def _fill_bits(bits: dict[int, tuple[int, ...]], mask: int) -> tuple[int, ...]:
    """The set bits of ``mask`` ascending, cached in ``bits`` on first use.

    Iterating a cached tuple runs at C level.  The engine looks a mask up
    with ``try: bits[mask]`` and calls this only on a miss.  The cache holds
    only the masks a run meets, so it works at any port count, where a
    table over all ``2**n`` masks does not.
    """
    found = tuple(k for k in range(mask.bit_length()) if mask >> k & 1)
    bits[mask] = found
    return found


def _fill_first(first: dict[int, int], ptr: int, mask: int) -> int:
    """The first set bit of non-empty ``mask`` in cyclic order from ``ptr``
    (the round-robin pick), cached in ``first`` — the table for ``ptr``."""
    rest = mask >> ptr << ptr or mask
    j = (rest & -rest).bit_length() - 1
    first[mask] = j
    return j


def batch_refusal(
    config: PipelinedSwitchConfig,
    source: PacketSource,
    sanitizer: Sanitizer | None = None,
) -> str | None:
    """Why :class:`BatchPipelinedSwitch` refuses this configuration, or
    ``None`` when it models it exactly.

    The constructor raises with this reason; the ``pipelined_fast`` arch
    builds the batch kernel whenever it is ``None`` and the checked kernel
    otherwise.
    """
    if source.n_out != config.n:
        return f"source targets {source.n_out} outputs, switch has {config.n}"
    if source.packet_words != config.packet_words:
        return (f"source packets are {source.packet_words} words, switch "
                f"needs {config.packet_words} (pipeline depth)")
    if config.priority is not Priority.READS_FIRST:
        return (f"only the paper's READS_FIRST arbitration is modelled; "
                f"{config.priority} is an ablation policy")
    if sanitizer is not None and sanitizer.enabled:
        return ("the runtime sanitizer hooks every cycle and wave, which the "
                "batch kernel skips by design; sanitize on the checked kernel")
    if isinstance(source, BatchRenewalSource):
        return None
    if not isinstance(source, SaturatingSource):
        return (f"{type(source).__name__} is polled cycle by cycle and "
                f"cannot be consumed as an arrival tape; use "
                f"BatchRenewalSource (or SaturatingSource)")
    if config.credit_flow:
        return ("input-credit flow control mutes links one by one, and "
                "SaturatingSource draws every link from one shared stream, "
                "so a muted link would reorder the draws; use "
                "BatchRenewalSource, whose links draw independently")
    return None


class BatchPipelinedSwitch(SwitchTelemetryMixin):
    """Cycle-batched kernel: bit-identical statistics at batch granularity.

    Drop-in for the checked kernel wherever statistics and telemetry are
    consumed: same ``run`` / ``drain`` / ``is_empty`` / ``warmup`` API, same
    ``stats``, wave counters and latency collectors, same telemetry stream.
    Statistics become visible at ``run()``/``drain()`` boundaries rather
    than per cycle — the logs are flushed when a batch completes.

    ``batch_cycles`` sets the ingestion window (arrival tape consumption
    and log-flush granularity); correctness is independent of it, which the
    equivalence tests assert by sweeping it, including ``batch_cycles=1``.
    """

    #: Every shape runs on the one bitmask window engine.  Kept because
    #: external tooling (the benchmark tracer, E18) reads it to label the
    #: engine.
    _lean = True

    def __init__(
        self,
        config: PipelinedSwitchConfig,
        source: PacketSource,
        telemetry: Telemetry | None = None,
        sanitizer: Sanitizer | None = None,
        batch_cycles: int = DEFAULT_BATCH_CYCLES,
    ) -> None:
        reason = batch_refusal(config, source, sanitizer)
        if reason is not None:
            raise reject_unsupported(_KERNEL, reason)
        self._tape: ArrivalTape = (
            source if isinstance(source, BatchRenewalSource)
            else _SaturatingTape(cast(SaturatingSource, source))
        )
        if batch_cycles < 1:
            raise reject_unsupported(
                _KERNEL, f"batch_cycles must be >= 1, got {batch_cycles}"
            )
        self.config = config
        self.source = source
        self.batch_cycles = batch_cycles
        n = config.n
        self.cycle = 0
        self.next_wave_ok = [0] * n
        self._n = n
        self._b = config.depth
        self._w = config.packet_words
        self._quanta = config.quanta
        self._extra = 2 * config.link_pipeline_stages
        self._chain_offsets = [q * self._b for q in range(1, config.quanta)]
        self._free = config.addresses
        self._peak_occ = 0
        self._queues: list[deque[tuple[int, int, int, int]]] = [
            deque() for _ in range(n)
        ]
        self._pend_uid = [-1] * n
        self._pend_dst = [0] * n
        # 1 << dst for a pending store that may cut through (0 under
        # store-and-forward), rebuilt from _pend_dst on restore.
        self._pend_dbit = [0] * n
        self._pend_arr = [0] * n
        self._credits = [config.credits_per_input or 0] * n
        # Input credit flow (§4.2).  A departure-bearing wave at t0 returns
        # its input's credit at t0 + W - 1 (_credit_due, (cycle, input)).
        # An arrival at c that spends a link's last credit schedules a
        # phase-4 check at c + W (_credit_checks, (cycle, link)); a link
        # still without credit there is muted from that cycle (_mute_at,
        # -1 while polling).  _held keeps, per link, the (cycle, dst)
        # arrivals the tape handed out that the link has not taken: those
        # of a muted link, and those a resumed link pushed past the window.
        self._credit_due: deque[tuple[int, int]] = deque()
        self._credit_checks: deque[tuple[int, int]] = deque()
        self._mute_at = [-1] * n
        self._held: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        self._stream_end = [0] * n  # cycle each link's current packet tape ends
        self._chain: set[int] = set()
        # (cycle, link) quantum-check heap; see _advance_window for the
        # (cycle, link, 0) entries it holds inside a window.
        self._qchecks: list[tuple[int, ...]] = []
        self._rr_out = 0
        self._rr_in = 0
        self._busy_until = -1
        self._out_credits = [
            config.downstream_credits if config.downstream_credits is not None else -1
        ] * n
        self._credit_returns: deque[tuple[int, int]] = deque()
        self._next_uid = 0
        # -- statistics (identical collectors to the other kernels) -----------
        self.stats = SwitchStats(n_outputs=n)
        self.ct_latency = Counter()
        self.ct_latency_hist = Histogram()
        self.total_latency = Counter()
        self.cut_through_waves = 0
        self.plain_read_waves = 0
        self.write_waves = 0
        self.idle_cycles = 0
        self.deadline_overrides = 0
        self.overrun_drops = 0
        self.policy_drops = 0
        # Admission policy (normalized by the config); trivial = complete
        # sharing, consulted never — the seed hot path is untouched.
        self.policy = config.policy
        self._policy_trivial = self.policy.trivial
        self.stagger_extra = Counter()
        self._unobstructed: set[int] = set()
        # -- batched logs, consumed by _flush() --------------------------------
        # The wave and arrival logs feed only the event channel; metrics
        # settle from per-window aggregates (see _flush).
        self._wave_log: list[tuple[int, int, int, int, int, int]] = []
        self._drop_log: list[tuple[int, int, int, int, int, int]] = []
        self._arrive_log: list[tuple[int, int, int, int]] = []
        # Per-port telemetry aggregates since the last flush: arrivals, and
        # departures whose head precedes warmup (those after it are the
        # per_output_delivered delta).
        self._port_arrivals = [0] * n
        self._warmup_departures = [0] * n
        # (cycle, free, out_credits, queue_depths, drop_log_prefix, peak,
        # in_credits): the prefix is len(_drop_log) at the sampling instant,
        # so _flush can reconstruct the drop taxonomy visible at each
        # sample; peak is the occupancy high-water mark at that instant.
        self._sample_log: list[
            tuple[int, int, tuple[int, ...], tuple[int, ...], int, int,
                  tuple[int, ...]]
        ] = []
        self._pending_departures: deque[tuple[int, int, int, int, int, int]] = deque()
        # Due events (cycle, output) at which a CT/read wave's output becomes
        # usable again and its quanta addresses release (both land on
        # t0 + W), encoded cycle << n | output bit so the hot loop never
        # builds or unpacks tuples.  Persisted across windows.
        self._due: deque[int] = deque()
        # Counter values at the last flush, whose deltas settle the metrics.
        # A snapshot follows a flush, so restore derives them from the
        # counters themselves.
        self._idle_flushed = 0
        self._deadline_flushed = 0
        self._waves_flushed = (0, 0, 0)  # (write, cut-through, read)
        self._delivered_flushed = [0] * n
        self.attach_telemetry(telemetry)
        self.attach_sanitizer(sanitizer)
        # Mask caches filled on first use (see _fill_bits / _fill_first).
        self._bits: dict[int, tuple[int, ...]] = {}
        self._first: list[dict[int, int]] = [{} for _ in range(n)]

    def _telemetry_state(self) -> tuple[int, int, list[int]]:
        return (self.config.addresses - self._free, self._free,
                list(self._credits))

    def _queue_depths(self) -> list[int]:
        return [len(q) for q in self._queues]

    def _peak_occupancy(self) -> int:
        # The window engine folds its running minimum of free addresses
        # into this at every window end.
        return self._peak_occ

    # -- public API -----------------------------------------------------------
    @property
    def warmup(self) -> int:
        return self.stats.warmup

    @warmup.setter
    def warmup(self, cycles: int) -> None:
        self.stats.warmup = cycles

    @property
    def link_utilization(self) -> float:
        """Delivered words per output-link cycle (the paper's link load)."""
        cycles = self.stats.measured_slots
        if cycles <= 0:
            return math.nan
        return self.stats.delivered * self._w / (cycles * self._n)

    def run(self, cycles: int) -> SwitchStats:
        """Advance the switch by ``cycles`` clock cycles, in batches."""
        stop = self.cycle + cycles
        if cycles > 0:
            # After a muted drain every link is idle and re-polls at the
            # current cycle; with no intervening drain this is a no-op.
            self._tape.resume_idle(self.cycle)
        window_arrivals = self._tape.window_arrivals
        advance = self._advance_window
        batch = self.batch_cycles
        while self.cycle < stop:
            t1 = min(stop, self.cycle + batch)
            advance(t1, *window_arrivals(self.cycle, t1))
        self._flush()
        return self.stats

    def drain(self, max_cycles: int = 1_000_000) -> int:
        """Run with the source muted until all in-flight packets depart."""
        start = self.cycle
        no_arrivals: list[int] = []
        while not self.is_empty():
            if self.cycle - start > max_cycles:
                raise RuntimeError(
                    f"switch failed to drain within {max_cycles} cycles: "
                    f"{sum(len(q) for q in self._queues)} packets still queued"
                )
            if (
                all(u < 0 for u in self._pend_uid)
                and all(not q for q in self._queues)
            ):
                # Only time-based residue remains (in-flight chains, link
                # streams, buffer releases): the first empty cycle is known
                # in closed form; advance exactly there, processing the
                # remaining due-events and idle accounting on the way.
                target = max(self.cycle, self._busy_until + 1, *self._stream_end)
                if self._chain:
                    target = max(target, max(self._chain) + 1)
                self._advance_window(target, no_arrivals, no_arrivals,
                                     no_arrivals, polling=False)
            else:
                # Waves still to issue: advance in windows, stopping the
                # moment the last queue/pending store resolves so the final
                # closed-form step above lands on the exact first empty
                # cycle (the checked kernel's drain length, bit for bit).
                self._advance_window(self.cycle + self.batch_cycles,
                                     no_arrivals, no_arrivals, no_arrivals,
                                     draining=True, polling=False)
        self._flush()
        if self.config.credit_flow:
            self._resume_after_drain(start)
        return self.cycle - start

    def is_empty(self) -> bool:
        return (
            self._free == self.config.addresses
            and not self._chain
            and self.cycle > self._busy_until
            and all(self.cycle >= e for e in self._stream_end)
            and all(u < 0 for u in self._pend_uid)
            and all(not q for q in self._queues)
        )

    # -- input credit flow ----------------------------------------------------
    def _resume_after_drain(self, since: int) -> None:
        """Re-anchor every link's tape after a drain that began at ``since``.

        No link polls during a drain, and every link with a credit polls
        again at its end.  A muted link resumes at the outcome of its mute
        cycle, unless it is still without credit (a dropped packet never
        returns one).  Any other link resumes at its first poll at or after
        ``since``: the end of its last packet, or ``since`` itself.  The
        tape's first outcome is not enough here, because a link resumed
        from muting may have pushed misses past the window, which the tape
        no longer holds.
        """
        t = self.cycle
        credits = self._credits
        due = self._credit_due
        while due and due[0][0] < t:
            credits[due.popleft()[1]] += 1
        for i, m in enumerate(self._mute_at):
            if m < 0:
                m = max(since, self._stream_end[i])
            elif not credits[i]:
                continue
            if m < t:
                self._mute_at[i] = -1
                self._held[i] = [(c + t - m, d) for c, d in self._held[i]]
                cast(BatchRenewalSource, self.source).delay_link(i, t - m)

    # -- the batch engine -----------------------------------------------------
    def _advance_window(
        self,
        stop: int,
        arr_c: list[int],
        arr_l: list[int],
        arr_d: list[int],
        draining: bool = False,
        polling: bool = True,
    ) -> None:
        """Advance to exactly ``stop``, given the window's arrival tape.

        Scalar skip-ahead core: one iteration per *actionable* cycle, with
        idle spans between them accounted in closed form.  State lives in
        hoisted locals.  Per-output state is mirrored in bitmasks, so the
        round-robin scans become cached mask picks; ``next_wave_ok``
        expiries become a due-event deque, so the idle-skip target needs no
        per-output scan.  Without an event channel, departures are applied
        inline (or queued on the pending deque if they straddle the window)
        and no wave or arrival log is built; telemetry then only logs drops
        and samples (the series ring needs the drop taxonomy at each
        sample) and counts arrivals, and departures before warmup, per
        port.  With an event channel, waves and arrivals also go to the
        window logs that :meth:`_flush` replays, departures included.
        Multi-quantum chains,
        quantum-boundary checks and store-and-forward completions each sit
        behind a hoisted sentinel, so a shape without them pays one test.
        So does input credit flow: credit returns and mute checks share one
        sentinel.  Phase 4 diverts a muted or resumed link's arrivals to its
        ``_held`` FIFO as it reaches them; a polling link's FIFO head waits
        on the quantum-check heap at its cycle plus the link's shift, the
        waits it resumed from this window.  Shifts only grow, so a head
        queued before a resume pops early and is re-queued: a mute or resume
        moves no arrival.  With ``polling=False`` (a drain) no link polls,
        so none is muted or resumed; :meth:`_resume_after_drain` re-anchors
        them when the drain ends.
        """
        t = self.cycle
        n = self._n
        b = self._b
        w = self._w
        extra = self._extra
        rtt = self.config.downstream_rtt
        credited = self.config.downstream_credits is not None
        free = self._free
        returns = self._credit_returns
        queues = self._queues
        next_ok = self.next_wave_ok
        out_credits = self._out_credits
        pend_uid = self._pend_uid
        pend_arr = self._pend_arr
        pend_dst = self._pend_dst
        pend_dbit = self._pend_dbit
        stream_end = self._stream_end
        unobstructed = self._unobstructed
        warmup = self.stats.warmup
        next_uid = self._next_uid
        rr_out = self._rr_out
        rr_in = self._rr_in
        busy_until = self._busy_until
        returns_append = returns.append
        pending = self._pending_departures
        pending_append = pending.append
        bits = self._bits
        first_rr = self._first
        stats = self.stats
        cut_through = self.config.cut_through
        ct_one = 1 if cut_through else 0
        # Multi-quantum state (§3.5): reserved chain slots and the
        # quantum-boundary check heap, both empty when quanta == 1.
        quanta = self._quanta
        multi = quanta > 1
        chain = self._chain
        chain_add = chain.add
        chain_offsets = self._chain_offsets
        qchecks = self._qchecks
        # Input credit flow: returns are applied lazily (whenever the loop
        # reaches a cycle at or past them), except while a link is muted,
        # when the loop wakes at each return so a resumed link polls at
        # exactly its return cycle.  ``lazy`` flags the links that divert
        # their arrivals (muted, or resumed this window), ``on_heap`` those
        # with their _held head on the heap as (cycle + shift, link, 0).
        credit_flow = self.config.credit_flow
        credits = self._credits
        cdue = self._credit_due
        cdue_append = cdue.append
        cchecks = self._credit_checks
        mute_at = self._mute_at
        hold = self._held
        shift = [0] * n
        muted = on_heap = 0
        if credit_flow:
            for i in range(n):
                if mute_at[i] >= 0:
                    muted |= 1 << i
                elif polling and hold[i]:
                    heappush(qchecks, (hold[i][0][0], i, 0))
                    on_heap |= 1 << i
        lazy = muted
        # Telemetry: every collection site below sits behind ``tel``, so the
        # telemetry-off loop pays one check per site and builds no logs.
        # Telemetry-on windows log drops and samples and count arrivals per
        # port for _flush.  Only an event channel logs waves and arrivals;
        # _flush then replays every departure from the wave log, so its
        # windows apply none inline.
        tel = self._tel
        events = tel and self.telemetry.events.enabled
        wlog_append = self._wave_log.append
        drop_log = self._drop_log
        dlog_append = drop_log.append
        alog_append = self._arrive_log.append
        sample_log = self._sample_log
        port_arrivals = self._port_arrivals
        warmup_deps = self._warmup_departures
        addresses = self.config.addresses
        min_free = addresses - self._peak_occ  # occupancy high-water mark
        inline_deps = not draining and not events
        if inline_deps:
            # Departure-bearing waves start in tail order (same W for every
            # wave), so straddlers left over from the previous window all
            # depart before any wave this window starts.  Replaying them
            # here lets the hot loop below apply in-window departures
            # inline, in the checked kernel's exact order; a non-draining
            # window always runs to ``stop``, so ``tail < stop`` means the
            # departure is certain to have happened by window end.
            while pending and pending[0][0] < stop:
                _tail, d_uid, d_arr, _src, d_dst, d_t0 = pending.popleft()
                head = d_t0 + 1 + extra
                if head >= warmup:
                    stats.delivered += 1
                    stats.per_output_delivered[d_dst] += 1
                elif tel:
                    warmup_deps[d_dst] += 1
                if d_uid in unobstructed:
                    unobstructed.remove(d_uid)
                    staggerless = True
                else:
                    staggerless = False
                if d_arr >= warmup:
                    d_ct = head - d_arr
                    stats.delay.add(d_ct)
                    stats.delay_hist.add(d_ct)
                    self.total_latency.add(d_ct + w - 1)
                    if staggerless:
                        self.stagger_extra.add(d_ct - 2)
        # Hoisted departure-statistics accumulators (the exact Counter.add /
        # Histogram.add recurrences, applied in departure order — see
        # ``_flush`` for the invariants).
        delay = stats.delay
        dl_n, dl_mean, dl_m2 = delay.count, delay._mean, delay._m2
        dl_min, dl_max = delay.minimum, delay.maximum
        total_latency = self.total_latency
        tl_n, tl_mean, tl_m2 = (total_latency.count, total_latency._mean,
                                total_latency._m2)
        tl_min, tl_max = total_latency.minimum, total_latency.maximum
        stagger = self.stagger_extra
        sg_n, sg_mean, sg_m2 = stagger.count, stagger._mean, stagger._m2
        sg_min, sg_max = stagger.minimum, stagger.maximum
        dh_counts = stats.delay_hist.counts
        dh_get = dh_counts.get
        dh_total = stats.delay_hist.total
        delivered = stats.delivered
        per_out = stats.per_output_delivered
        unobstructed_remove = unobstructed.remove
        wm1 = w - 1
        policy_trivial = self._policy_trivial
        policy_admit = self.policy.admit
        offered = accepted = dropped = 0
        idle = deadline = 0
        write_waves = ct_waves = read_waves = 0
        overruns = 0
        policy_drops = 0
        ai = 0
        n_arr = len(arr_c)
        full = (1 << n) - 1
        never = 1 << 62  # sentinel: later than any reachable cycle
        # Bitmask mirrors of the canonical per-output state, rebuilt per
        # window: bit j of ok_mask <=> next_wave_ok[j] <= t, nonempty_mask
        # <=> queue j has a packet, credit_mask <=> out_credits[j] != 0,
        # pend_mask <=> input j holds a pending store.  A CT/read wave at t0
        # both occupies the output and holds an address until exactly
        # t0 + W, so one persistent due deque (self._due) carries both
        # consequences; is_empty/drain are covered by busy_until, which
        # bounds every due.  New dues land at t + W with t increasing, so
        # the deque stays sorted.
        #
        # Under store-and-forward nonempty_mask means "the queue head is
        # stored": a store into an empty queue sets the bit only at its
        # completion, a store-due event (sdue) at winit + W.  Later entries
        # are stored before the head's read frees the output again, so the
        # head is the only store that can be incomplete.  There are no
        # cut-through candidates: pend_dbit holds 0 instead of 1 << dst.
        ok_mask = nonempty_mask = credit_mask = pend_mask = 0
        heads: list[int] = []
        for j in range(n):
            if next_ok[j] <= t:
                ok_mask |= 1 << j
            q = queues[j]
            if q:
                if cut_through or q[0][2] + w <= t:
                    nonempty_mask |= 1 << j
                else:
                    heads.append((q[0][2] + w) << n | 1 << j)
            if out_credits[j] != 0:
                credit_mask |= 1 << j
            if pend_uid[j] >= 0:
                pend_mask |= 1 << j
        due = self._due
        due_append = due.append
        due_popleft = due.popleft
        next_due = due[0] >> n if due else never
        next_ret = returns[0][0] if returns else never
        next_arr = arr_c[0] if n_arr else never
        next_qc = qchecks[0][0] if qchecks else never
        next_p4 = next_arr if next_arr < next_qc else next_qc
        next_cd = cdue[0][0] if cdue else never
        next_cc = cchecks[0][0] if cchecks else never
        next_cred = next_cd if next_cd < next_cc else next_cc
        tel_iv = self.telemetry.sample_interval if tel else 0
        if tel_iv:
            next_sample = ((t + tel_iv - 1) // tel_iv) * tel_iv
        else:
            next_sample = never
        sdue = deque(sorted(heads))
        sdue_append = sdue.append
        next_sdue = sdue[0] >> n if sdue else never
        # One sentinel for the two rare phase-0 events (sampling instants
        # and store completions), so the common loop pays one compare.
        next_aux = next_sample if next_sample < next_sdue else next_sdue
        # Heap entries due this cycle are checks[qi:qn]: the link of a
        # quantum check (cdst -1) or of a carried arrival (cdst its
        # destination).  Each arrival cycle consumes them all, so qi == qn
        # holds between check cycles.
        checks: list[int] = []
        cdst: list[int] = []
        qi = qn = 0

        while t < stop:
            # -- phase 0: due consequences of past departures ------------------
            if next_ret <= t:
                while returns and returns[0][0] <= t:
                    j = returns.popleft()[1]
                    out_credits[j] += 1
                    credit_mask |= 1 << j
                next_ret = returns[0][0] if returns else never
            if next_due <= t:
                while due and due[0] >> n <= t:
                    free += quanta
                    ok_mask |= due_popleft() & full
                next_due = due[0] >> n if due else never
            if next_aux <= t:
                if next_sdue <= t:
                    while sdue and sdue[0] >> n <= t:
                        nonempty_mask |= sdue.popleft() & full
                    next_sdue = sdue[0] >> n if sdue else never
                if next_sample <= t:
                    # Start-of-cycle input credits: every return before t,
                    # including those not yet applied.
                    in_credits = list(credits)
                    for r, k in cdue:
                        if r >= t:
                            break
                        in_credits[k] += 1
                    sample_log.append((t, free, tuple(out_credits),
                                       tuple(len(q) for q in queues),
                                       len(drop_log), addresses - min_free,
                                       tuple(in_credits)))
                    next_sample += tel_iv
                next_aux = next_sample if next_sample < next_sdue else next_sdue
            # -- phase 2: arbitration ------------------------------------------
            started = False
            wave = 0
            min_future = never
            if chain and t in chain:
                # A chain continuation owns the cycle.  A wave starting now
                # would collide with a reserved slot t0 + m'*B only if
                # t = t0 + k*B for some 0 < k < quanta - 1, which is itself
                # a reserved slot of t0's chain and so owned here: no
                # separate collision test is needed.
                chain.discard(t)
                started = True
            elif not pend_mask or free < quanta:
                # No eligible pending store can start a wave (none pending,
                # or no free address), so only a plain read can go — skip
                # the gather/urgent/EDF machinery.  This covers the
                # majority of iterations at moderate load.
                if pend_mask:
                    try:
                        pbits = bits[pend_mask]
                    except KeyError:
                        pbits = _fill_bits(bits, pend_mask)
                    for i in pbits:
                        a = pend_arr[i]
                        if t <= a < min_future:
                            min_future = a
                comb = ok_mask & credit_mask & nonempty_mask
                if comb:
                    try:
                        j = first_rr[rr_out][comb]
                    except KeyError:
                        j = _fill_first(first_rr[rr_out], rr_out, comb)
                    bit = 1 << j
                    rr_out = j + 1 if j + 1 < n else 0
                    q = queues[j]
                    uid, arr_q, _winit, src = q.popleft()
                    if not q:
                        nonempty_mask ^= bit
                    read_waves += 1
                    wave = _READ
            else:
                # One gather pass over the pending stores computes what the
                # picks below need: the urgent candidate (min arrival,
                # lowest input), the targeted-output mask, and the earliest
                # not-yet-eligible pend for the idle skip.
                best_i = -1
                best_arr = 0
                dst_mask = 0
                try:
                    pbits = bits[pend_mask]
                except KeyError:
                    pbits = _fill_bits(bits, pend_mask)
                for i in pbits:
                    a = pend_arr[i]
                    if a < t:
                        if best_i < 0 or a < best_arr:
                            best_i = i
                            best_arr = a
                        dst_mask |= pend_dbit[i]
                    elif a < min_future:
                        min_future = a
                avail = ok_mask & credit_mask
                if best_i >= 0 and best_arr + b <= t:
                    # Urgent pending store: §3.4 deadline override.  The
                    # global minimum-arrival pend is necessarily its own
                    # output's best cut-through candidate, so the CT
                    # condition reduces to the output being free and
                    # credited with an empty queue (dst_mask is empty
                    # under store-and-forward, which never cuts through).
                    deadline += 1
                    uid = pend_uid[best_i]
                    free -= quanta
                    if free < min_free:
                        min_free = free
                    pend_uid[best_i] = -1
                    pend_mask ^= 1 << best_i
                    if best_arr >= warmup:
                        accepted += 1
                    j = pend_dst[best_i]
                    bit = 1 << j
                    if avail & dst_mask & bit and not nonempty_mask & bit:
                        rr_out = j + 1 if j + 1 < n else 0
                        ct_waves += 1
                        arr_q = best_arr
                        src = best_i
                        wave = _CT
                    else:
                        rr_in = best_i + 1 if best_i + 1 < n else 0
                        q = queues[j]
                        if cut_through:
                            nonempty_mask |= bit
                        elif not q:
                            sdue_append((t + w) << n | bit)
                            if next_sdue == never:
                                next_sdue = t + w
                                if next_sdue < next_aux:
                                    next_aux = next_sdue
                        q.append((uid, best_arr, t, best_i))
                        write_waves += 1
                        if events:
                            wlog_append((t, _STORE, uid, best_i, j, best_arr))
                        if multi:
                            for off in chain_offsets:
                                chain_add(t + off)
                        if t + w > busy_until:
                            busy_until = t + w
                        started = True
                else:
                    ready = avail & nonempty_mask
                    comb = ready | (avail & dst_mask & (full ^ nonempty_mask))
                    if comb:
                        # First candidate output in cyclic order from
                        # rr_out — one cached lookup.
                        try:
                            j = first_rr[rr_out][comb]
                        except KeyError:
                            j = _fill_first(first_rr[rr_out], rr_out, comb)
                        bit = 1 << j
                        rr_out = j + 1 if j + 1 < n else 0
                        if ready & bit:
                            q = queues[j]
                            uid, arr_q, _winit, src = q.popleft()
                            if not q:
                                nonempty_mask ^= bit
                            read_waves += 1
                            wave = _READ
                        else:
                            # Cut-through: minimum-arrival (lowest-input
                            # tie) eligible pend targeting j.
                            ci = -1
                            ca = 0
                            for i in pbits:
                                a = pend_arr[i]
                                if (a < t and pend_dst[i] == j
                                        and (ci < 0 or a < ca)):
                                    ci = i
                                    ca = a
                            uid = pend_uid[ci]
                            free -= quanta
                            if free < min_free:
                                min_free = free
                            pend_uid[ci] = -1
                            pend_mask ^= 1 << ci
                            if ca >= warmup:
                                accepted += 1
                            arr_q = ca
                            src = ci
                            ct_waves += 1
                            wave = _CT
                    elif best_i >= 0:
                        # Plain store: earliest deadline first, round-robin
                        # tie-break from rr_in.  Resolved lazily here (only
                        # a third of waves are plain stores, so the gather
                        # pass skips the tie-break bookkeeping).
                        sel = -1
                        sa = 0
                        sd = 0
                        for i in pbits:
                            a = pend_arr[i]
                            if a < t:
                                dd = i - rr_in
                                if dd < 0:
                                    dd += n
                                if sel < 0 or a < sa or (a == sa and dd < sd):
                                    sel = i
                                    sa = a
                                    sd = dd
                        rr_in = sel + 1 if sel + 1 < n else 0
                        uid = pend_uid[sel]
                        free -= quanta
                        if free < min_free:
                            min_free = free
                        pend_uid[sel] = -1
                        pend_mask ^= 1 << sel
                        if sa >= warmup:
                            accepted += 1
                        d = pend_dst[sel]
                        q = queues[d]
                        if cut_through:
                            nonempty_mask |= 1 << d
                        elif not q:
                            sdue_append((t + w) << n | 1 << d)
                            if next_sdue == never:
                                next_sdue = t + w
                                if next_sdue < next_aux:
                                    next_aux = next_sdue
                        q.append((uid, sa, t, sel))
                        write_waves += 1
                        if events:
                            wlog_append((t, _STORE, uid, sel, d, sa))
                        if multi:
                            for off in chain_offsets:
                                chain_add(t + off)
                        if t + w > busy_until:
                            busy_until = t + w
                        started = True
            if wave:
                # Shared consequence of a departure-bearing wave (plain read
                # or cut-through) on output j: occupy the output and hold
                # the address until t + W, consume a downstream credit, and
                # apply the departure.  In-window departures (tail < stop on
                # a window that runs to stop) are applied inline — waves
                # start in tail order, so this is the checked kernel's exact
                # departure order; straddlers go to the pending deque.
                tw = t + w
                next_ok[j] = tw
                ok_mask ^= bit
                due_append(tw << n | bit)
                if tw < next_due:
                    next_due = tw
                if credited:
                    oc = out_credits[j] - 1
                    out_credits[j] = oc
                    if not oc:
                        credit_mask ^= bit
                    returns_append((tw + rtt, j))
                    if tw + rtt < next_ret:
                        next_ret = tw + rtt
                if credit_flow:
                    # The input credit returns as the chain's last stage
                    # executes: after arbitration at tw - 1, before its
                    # arrivals.
                    cdue_append((tw - 1, src))
                    if tw - 1 < next_cd:
                        next_cd = tw - 1
                        if next_cd < next_cred:
                            next_cred = next_cd
                tail = tw + extra
                if tail > busy_until:
                    busy_until = tail
                started = True
                if multi:
                    for off in chain_offsets:
                        chain_add(t + off)
                if inline_deps and tail < stop:
                    head = t + 1 + extra
                    if head >= warmup:
                        delivered += 1
                        per_out[j] += 1
                    elif tel:
                        warmup_deps[j] += 1
                    if uid in unobstructed:
                        unobstructed_remove(uid)
                        staggerless = True
                    else:
                        staggerless = False
                    if arr_q >= warmup:
                        ct = head - arr_q
                        dl_n += 1
                        delta = ct - dl_mean
                        dl_mean += delta / dl_n
                        dl_m2 += delta * (ct - dl_mean)
                        if ct < dl_min:
                            dl_min = ct
                        if ct > dl_max:
                            dl_max = ct
                        dh_counts[ct] = dh_get(ct, 0) + 1
                        dh_total += 1
                        tot = ct + wm1
                        tl_n += 1
                        delta = tot - tl_mean
                        tl_mean += delta / tl_n
                        tl_m2 += delta * (tot - tl_mean)
                        if tot < tl_min:
                            tl_min = tot
                        if tot > tl_max:
                            tl_max = tot
                        if staggerless:
                            sg = ct - 2
                            sg_n += 1
                            delta = sg - sg_mean
                            sg_mean += delta / sg_n
                            sg_m2 += delta * (sg - sg_mean)
                            if sg < sg_min:
                                sg_min = sg
                            if sg > sg_max:
                                sg_max = sg
                elif events:
                    wlog_append((t, wave, uid, src, j, arr_q))
                else:
                    pending_append((tail, uid, arr_q, src, j, t))
            # -- phase 3: input credit returns, then credit mute checks --------
            if next_cred <= t:
                while cdue and cdue[0][0] <= t:
                    r, i = cdue.popleft()
                    credits[i] += 1
                    if muted >> i & 1 and polling:
                        # The link polls again at r: everything it has not
                        # polled, due from its mute cycle on, shifts by the
                        # wait.  The wait is at least one cycle (a return
                        # lands before its cycle's mute checks), so the
                        # link stays lazy for the rest of the window.
                        s = r - mute_at[i]
                        shift[i] += s
                        cast(BatchRenewalSource, self.source).delay_link(i, s)
                        mute_at[i] = -1
                        muted ^= 1 << i
                        h = hold[i]
                        if h and not on_heap >> i & 1:
                            heappush(qchecks, (h[0][0] + shift[i], i, 0))
                            on_heap |= 1 << i
                while cchecks and cchecks[0][0] <= t:
                    i = cchecks.popleft()[1]
                    if not credits[i] and polling:
                        mute_at[i] = t
                        muted |= 1 << i
                        lazy |= 1 << i
                next_qc = qchecks[0][0] if qchecks else never
                next_p4 = next_arr if next_arr < next_qc else next_qc
                next_cd = cdue[0][0] if cdue else never
                next_cc = cchecks[0][0] if cchecks else never
                next_cred = next_cd if next_cd < next_cc else next_cc
            # -- phase 4: arrivals and §3.5 quantum-boundary checks ------------
            if next_p4 == t:
                # Arrivals (window or carried) and checks come in input-link
                # order; a check at t + m*B drops a store still pending
                # when the packet's next quantum reuses the input latch.
                if next_qc == t:
                    checks = []
                    cdst = []
                    while qchecks and qchecks[0][0] == t:
                        e = heappop(qchecks)
                        i = e[1]
                        d = -1
                        if len(e) > 2:
                            # A _held FIFO head: taken if due now, else
                            # early (the link shifted since) and re-queued;
                            # a muted link's is re-queued on resume.
                            on_heap ^= 1 << i
                            if muted >> i & 1:
                                continue
                            h = hold[i]
                            c = shift[i]
                            if h[0][0] + c == t:
                                d = h.pop(0)[1]
                            if h:
                                heappush(qchecks, (h[0][0] + c, i, 0))
                                on_heap |= 1 << i
                            if d < 0:
                                continue
                        checks.append(i)
                        cdst.append(d)
                    qi = 0
                    qn = len(checks)
                while True:
                    if (ai < n_arr and arr_c[ai] == t
                            and (qi == qn or arr_l[ai] < checks[qi])):
                        i = arr_l[ai]
                        d = arr_d[ai]
                        ai += 1
                        if lazy and lazy >> i & 1:
                            hold[i].append((t, d))
                            if not (muted | on_heap) >> i & 1:
                                heappush(qchecks, (t + shift[i], i, 0))
                                on_heap |= 1 << i
                            continue
                    elif qi < qn:
                        i = checks[qi]
                        d = cdst[qi]
                        qi += 1
                        if d < 0:
                            if pend_mask >> i & 1:
                                if pend_arr[i] >= warmup:
                                    dropped += 1
                                overruns += 1
                                uid = pend_uid[i]
                                unobstructed.discard(uid)
                                if tel:
                                    dlog_append((t, uid, i, pend_dst[i],
                                                 _QUANTUM, pend_arr[i]))
                                pend_uid[i] = -1
                                pend_mask ^= 1 << i
                            continue
                    else:
                        break
                    # An arrival on link i for output d.
                    ibit = 1 << i
                    if pend_mask & ibit:
                        if credit_flow:
                            raise DeadlineMissedError(
                                f"input {i}: packet {pend_uid[i]} overrun "
                                f"at cycle {t} despite credit flow control"
                            )
                        if pend_arr[i] >= warmup:
                            dropped += 1
                        overruns += 1
                        unobstructed.discard(pend_uid[i])
                        if tel:
                            dlog_append((t, pend_uid[i], i, pend_dst[i],
                                         _HEAD, pend_arr[i]))
                    uid = next_uid
                    next_uid += 1
                    stream_end[i] = t + w
                    if policy_trivial:
                        admitted = True
                    else:
                        held = [
                            len(qq) + (1 if next_ok[jj] > t else 0)
                            for jj, qq in enumerate(queues)
                        ]
                        admitted = policy_admit(d, free, held, quanta)
                    if admitted:
                        if multi:
                            for off in chain_offsets:
                                heappush(qchecks, (t + off, i))
                        if credit_flow:
                            credits[i] -= 1
                            if not credits[i]:
                                # Out of credit: the link's next poll,
                                # at t + W, needs a returned credit.
                                cchecks.append((t + w, i))
                                if t + w < next_cc:
                                    next_cc = t + w
                                    if next_cc < next_cred:
                                        next_cred = next_cc
                        pend_uid[i] = uid
                        pend_dst[i] = d
                        pend_dbit[i] = ct_one << d
                        pend_arr[i] = t
                        pend_mask |= ibit
                    if t >= warmup:
                        offered += 1
                        if (admitted and next_ok[d] <= t + 1
                                and not queues[d]):
                            clear = True
                            others = pend_mask ^ ibit
                            try:
                                obits = bits[others]
                            except KeyError:
                                obits = _fill_bits(bits, others)
                            for k in obits:
                                if pend_dst[k] == d:
                                    clear = False
                                    break
                            if clear:
                                unobstructed.add(uid)
                    if not admitted:
                        # The head-overrun branch above relies on the new
                        # pend overwriting the old; a refusal creates no
                        # pend, so clear the overrun one explicitly.
                        pend_uid[i] = -1
                        pend_mask &= ~ibit
                        if t >= warmup:
                            dropped += 1
                        policy_drops += 1
                        if tel:
                            dlog_append((t, uid, i, d, _POLICY, t))
                    if tel:
                        port_arrivals[i] += 1
                        if events:
                            alog_append((t, uid, i, d))
                next_arr = arr_c[ai] if ai < n_arr else never
                next_qc = qchecks[0][0] if qchecks else never
                next_p4 = next_arr if next_arr < next_qc else next_qc
                # A pend created this cycle becomes eligible at t + 1; fold
                # it into the idle-skip wake target.
                if t < min_future:
                    min_future = t
            if draining and not pend_mask and not nonempty_mask and not sdue:
                if not started:
                    idle += 1
                t += 1
                break
            # -- advance: one cycle, or skip a provably idle span --------------
            if started:
                t += 1
                continue
            idle += 1
            target = stop
            if next_p4 < target:
                target = next_p4
            if next_due < target:
                target = next_due
            if next_ret < target:
                target = next_ret
            if min_future < never:
                c = min_future + 1
                if c < target:
                    target = c
            if next_aux < target:
                target = next_aux
            if next_cred < target:
                # Mute checks always wake the loop, returns only while a
                # link waits for one.
                c = next_cd if muted and next_cd < next_cc else next_cc
                if c < target:
                    target = c
            if chain:
                c = min(chain)
                if c < target:
                    target = c
            if target <= t + 1:
                t += 1
            else:
                idle += target - 1 - t
                t = target

        # -- write back the hoisted state --------------------------------------
        if on_heap:  # the FIFOs' heads leave the heap, their shifts apply
            qchecks[:] = [e for e in qchecks if len(e) == 2]
            heapify(qchecks)
        if lazy:
            for i, c in enumerate(shift):
                if c:
                    hold[i] = [(a + c, d) for a, d in hold[i]]
        self._free = free
        self._peak_occ = addresses - min_free
        self._rr_out = rr_out
        self._rr_in = rr_in
        self._busy_until = busy_until
        self._next_uid = next_uid
        self.idle_cycles += idle
        self.deadline_overrides += deadline
        self.overrun_drops += overruns
        self.policy_drops += policy_drops
        self.write_waves += write_waves
        self.cut_through_waves += ct_waves
        self.plain_read_waves += read_waves
        stats.offered += offered
        stats.accepted += accepted
        stats.dropped += dropped
        stats.delivered = delivered
        delay.count, delay._mean, delay._m2 = dl_n, dl_mean, dl_m2
        delay.minimum, delay.maximum = dl_min, dl_max
        stats.delay_hist.total = dh_total
        total_latency.count, total_latency._mean, total_latency._m2 = (
            tl_n, tl_mean, tl_m2)
        total_latency.minimum, total_latency.maximum = tl_min, tl_max
        stagger.count, stagger._mean, stagger._m2 = sg_n, sg_mean, sg_m2
        stagger.minimum, stagger.maximum = sg_min, sg_max
        self.cycle = t
        stats.horizon = t

    # -- batched statistics / telemetry application ----------------------------
    def _flush(self) -> None:
        """Apply the window logs: departures, stats, the telemetry stream.

        Everything the checked kernel records per cycle is derived here in
        closed form from the window logs and the pending deque, *in the
        order the checked kernel records it* — departure consequences
        replay in tail order (Welford accumulators are order-sensitive),
        occupancy samples in sampling order, and with an event channel on,
        every ARRIVE, drop, wave and DEPART event.

        Metrics settle once per flush, from aggregates: wave, bank, idle
        and deadline counters from the counter deltas since the last
        flush, per-port arrivals from the window counts, per-port
        departures from the ``per_output_delivered`` delta plus the
        departures before warmup, and the latency histogram with one
        weighted observation per distinct latency of the ``delay_hist``
        delta.  Counters are sums, and the latencies are integers, so the
        histogram's float sum is exact in any order.
        """
        tel = self._tel
        events = tel and self.telemetry.events.enabled
        stats = self.stats
        warmup = stats.warmup
        w = self._w
        extra = self._extra
        last_done = self.cycle - 1  # tails <= the last executed cycle departed
        pending = self._pending_departures
        waves = (self.write_waves, self.cut_through_waves,
                 self.plain_read_waves)
        if tel:
            emit = self.telemetry.events.emit
            for t, uid, src, dst in self._arrive_log:
                emit(t, ARRIVE, uid, src=src, dst=dst)
            port_arrivals = self._port_arrivals
            for src, count in enumerate(port_arrivals):
                if count:
                    self._m_arrivals[src].inc(count)
                    port_arrivals[src] = 0
            # Taxonomy state before this flush's drops land; the per-sample
            # prefix walk below replays it to each sampling instant.
            sample_tax = dict(self._drop_tax)
            for t, uid, src, dst, cause, _arr in self._drop_log:
                self._emit_drop(t, src, uid, dst, _DROP_CAUSE[cause])
            for t0, kind, uid, src, dst, _arr in self._wave_log:
                emit(t0, _WAVE_KIND[kind], uid, src=src, dst=dst)
            new_waves = 0
            for kind, now, before in zip(_WAVE_KIND, waves,
                                         self._waves_flushed):
                if now > before:
                    self._m_waves[kind].inc(now - before)
                    new_waves += now - before
            if new_waves:
                # Each wave chain touches every bank ``quanta`` times.
                for bank in self._m_bank:
                    bank.inc(self._quanta * new_waves)
            idle_now = self.idle_cycles
            if idle_now > self._idle_flushed:
                self._m_idle.inc(idle_now - self._idle_flushed)
            deadline_now = self.deadline_overrides
            if deadline_now > self._deadline_flushed:
                self._m_deadline.inc(deadline_now - self._deadline_flushed)
            addresses = self.config.addresses
            series = self.telemetry.series
            drop_log = self._drop_log
            drop_ptr = 0
            for t, free, oc, depths, n_drops, peak, ic in self._sample_log:
                occ = addresses - free
                self.telemetry.sample(t, occ)
                self._m_occupancy.set(occ)
                self._m_free.set(free)
                self._m_peak.set(peak)
                self._m_cycle.set(t)
                for gauge, depth in zip(self._m_qdepth, depths):
                    gauge.set(depth)
                for gauge, credits in zip(self._m_in_credits, ic):
                    gauge.set(credits)
                for gauge, credits in zip(self._m_out_credits, oc):
                    gauge.set(credits)
                if series is not None:
                    while drop_ptr < n_drops:
                        cause = _DROP_CAUSE[drop_log[drop_ptr][4]]
                        sample_tax[cause] = sample_tax.get(cause, 0) + 1
                        drop_ptr += 1
                    series.record(t, occ, free, depths, sample_tax)
        self._idle_flushed = self.idle_cycles
        self._deadline_flushed = self.deadline_overrides
        self._waves_flushed = waves
        # Departure-bearing waves (READ / WRITE_CT) schedule a completion at
        # tail = t0 + W + wire_delay; admission order == tail order, so one
        # pass over (pending from earlier windows) + (this window's log)
        # replays the checked kernel's departure processing exactly.
        for t0, kind, uid, src, dst, arr in self._wave_log:
            if kind != _STORE:
                pending.append((t0 + w + extra, uid, arr, src, dst, t0))
        # The three latency Counters and two Histograms are inlined into
        # local accumulators for the replay (this loop dominates flush time
        # at high throughput).  The arithmetic is the exact Counter.add /
        # Histogram.add recurrence, applied in the same order, so the
        # written-back floats are bit-identical to per-departure calls.
        ct_latency = self.ct_latency
        ct_hist = self.ct_latency_hist
        total_latency = self.total_latency
        stagger = self.stagger_extra
        unobstructed = self._unobstructed
        remove = unobstructed.remove
        wm1 = w - 1
        popleft = pending.popleft
        delay = stats.delay
        dl_n, dl_mean, dl_m2 = delay.count, delay._mean, delay._m2
        dl_min, dl_max = delay.minimum, delay.maximum
        tl_n, tl_mean, tl_m2 = (total_latency.count, total_latency._mean,
                                total_latency._m2)
        tl_min, tl_max = total_latency.minimum, total_latency.maximum
        sg_n, sg_mean, sg_m2 = stagger.count, stagger._mean, stagger._m2
        sg_min, sg_max = stagger.minimum, stagger.maximum
        dh_counts = stats.delay_hist.counts
        dh_get = dh_counts.get
        dh_total = stats.delay_hist.total
        delivered = stats.delivered
        per_out = stats.per_output_delivered
        warmup_deps = self._warmup_departures
        while pending and pending[0][0] <= last_done:
            tail, uid, arr, src, dst, t0 = popleft()
            head = t0 + 1 + extra
            if head >= warmup:
                delivered += 1
                per_out[dst] += 1
            elif tel:
                warmup_deps[dst] += 1
            if uid in unobstructed:
                remove(uid)
                staggerless = True
            else:
                staggerless = False
            if arr >= warmup:
                ct = head - arr
                dl_n += 1
                delta = ct - dl_mean
                dl_mean += delta / dl_n
                dl_m2 += delta * (ct - dl_mean)
                if ct < dl_min:
                    dl_min = ct
                if ct > dl_max:
                    dl_max = ct
                dh_counts[ct] = dh_get(ct, 0) + 1
                dh_total += 1
                tot = ct + wm1
                tl_n += 1
                delta = tot - tl_mean
                tl_mean += delta / tl_n
                tl_m2 += delta * (tot - tl_mean)
                if tot < tl_min:
                    tl_min = tot
                if tot > tl_max:
                    tl_max = tot
                if staggerless:
                    sg = ct - 2
                    sg_n += 1
                    delta = sg - sg_mean
                    sg_mean += delta / sg_n
                    sg_m2 += delta * (sg - sg_mean)
                    if sg < sg_min:
                        sg_min = sg
                    if sg > sg_max:
                        sg_max = sg
            if events:
                emit(tail, DEPART, uid, src=src, dst=dst, aux=head)
        if tel:
            flushed = self._delivered_flushed
            for j, counter in enumerate(self._m_departures):
                count = per_out[j] - flushed[j] + warmup_deps[j]
                if count:
                    counter.inc(count)
                    warmup_deps[j] = 0
            # ct_hist still holds the delay histogram of the last flush.
            before = ct_hist.counts
            observe = self._m_latency.observe
            for ct, count in dh_counts.items():
                count -= before.get(ct, 0)
                if count:
                    observe(ct, count)
        self._delivered_flushed = list(per_out)
        stats.delivered = delivered
        delay.count, delay._mean, delay._m2 = dl_n, dl_mean, dl_m2
        delay.minimum, delay.maximum = dl_min, dl_max
        stats.delay_hist.total = dh_total
        # stats.delay and ct_latency see the identical value sequence (same
        # guard, same ct = head - arr), so the cut-through accumulators are
        # mirrored from the delay ones rather than maintained separately.
        ct_latency.count, ct_latency._mean, ct_latency._m2 = dl_n, dl_mean, dl_m2
        ct_latency.minimum, ct_latency.maximum = dl_min, dl_max
        ct_hist.counts = dh_counts.copy()
        ct_hist.total = dh_total
        total_latency.count, total_latency._mean, total_latency._m2 = (
            tl_n, tl_mean, tl_m2)
        total_latency.minimum, total_latency.maximum = tl_min, tl_max
        stagger.count, stagger._mean, stagger._m2 = sg_n, sg_mean, sg_m2
        stagger.minimum, stagger.maximum = sg_min, sg_max
        self._wave_log.clear()
        self._drop_log.clear()
        self._arrive_log.clear()
        self._sample_log.clear()


def make_pipelined_switch(
    config: PipelinedSwitchConfig,
    source: PacketSource,
    telemetry: Telemetry | None = None,
    sanitizer: Sanitizer | None = None,
    kernel: str = "checked",
    batch_cycles: int | None = None,
) -> PipelinedSwitch | BatchPipelinedSwitch:
    """Build one of the two kernels: the checked oracle or the batch kernel.

    Select with ``kernel`` (``"checked"`` / ``"batch"``).  Both produce
    bit-identical statistics on the same seed; the batch kernel skips every
    structural-invariant check and advances in cycle batches over an
    arrival tape (``batch_cycles`` sets the window).  Pass a
    :class:`~repro.telemetry.Telemetry` bundle to collect metrics and
    lifecycle events — the streams are equivalent between kernels.

    Every invalid configuration — bad :class:`PipelinedSwitchConfig`
    fields, a source whose shape does not match the switch, or a
    configuration the batch kernel does not model — raises
    :class:`~repro.core.errors.ConfigError` (a ``ValueError``), never a
    bare assertion or type-specific exception, so callers can surface one
    clean error instead of a traceback.
    """
    if kernel == "batch":
        return BatchPipelinedSwitch(
            config, source, telemetry=telemetry, sanitizer=sanitizer,
            batch_cycles=DEFAULT_BATCH_CYCLES if batch_cycles is None
            else batch_cycles,
        )
    if kernel != "checked":
        raise ConfigError(
            f"unknown kernel {kernel!r}: expected 'checked' or 'batch'"
        )
    if batch_cycles is not None:
        raise ConfigError(
            "batch_cycles only applies to the batch kernel, not 'checked'"
        )
    return PipelinedSwitch(config, source, telemetry=telemetry,
                           sanitizer=sanitizer)
