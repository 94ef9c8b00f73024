"""Array-batched kernel for the pipelined-memory switch.

Third tier of the kernel hierarchy.  The checked
:class:`~repro.core.switch.PipelinedSwitch` moves every word through latch,
bus and bank objects (the oracle); the wave-level
:class:`~repro.core.fastpath.FastPipelinedSwitch` collapses each wave's
word-level consequences to arithmetic but still executes one interpreted
step per cycle; :class:`BatchPipelinedSwitch` removes the per-cycle step
itself.  It advances the switch in *cycle batches*:

* **Vectorized arrival ingestion** — the packet source is consumed as a
  *tape*: a whole window of per-link poll outcomes drawn as numpy blocks
  (:class:`~repro.core.sources.BatchRenewalSource`, or the internal
  saturating adapter).  Because a numpy ``Generator`` yields bit-identical
  values whether drawn scalar or as an array, the tape equals the per-cycle
  poll sequence of the other kernels exactly.
* **Event-driven cycle skipping** — with the window's arrivals known in
  advance, the kernel only executes cycles on which the machine can act
  (an arrival, a due buffer release or credit return, an eligible pending
  store, an eligible queued read, a reserved chain slot, a telemetry
  sampling instant).  Idle spans between them are accounted in closed form.
* **Batched statistics and telemetry** — per-cycle collection is replaced
  by per-window logs of wave admissions, arrivals and drops; every
  downstream consequence (departure cycles, latency accumulators, the full
  ARRIVE/STORE_WAVE/CUT_THROUGH/READ_WAVE/DEPART/drop event stream, bulk
  metric increments) is derived from the logs at batch granularity, in the
  exact order the wave kernel would have produced it — Welford accumulators
  and float histogram sums are order-sensitive, so the replay order is part
  of the contract.
* **Scalar fallback across intra-window dependencies** — arbitration
  decisions feed each other (a read at ``t`` changes what is eligible at
  ``t+1``), so decision resolution stays sequential; everything around it
  is batched.

The correctness contract is the three-way equivalence matrix
(``tests/core/test_batchpath.py``): checked == fast == batch, bit for bit,
on statistics, wave counters, latency accumulators and telemetry streams.
Configurations this kernel does not replicate exactly — non-READS_FIRST
arbitration, input-credit flow control (which gates source polling on
switch state and defeats window ingestion), per-cycle sources it cannot
tape, an attached runtime sanitizer — are refused via
:func:`~repro.core.fastpath.reject_unsupported`, never approximated.
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heappop, heappush
from typing import Protocol

import numpy as np

from repro.core.fastpath import (
    ensure_wave_kernel_supported,
    reject_unsupported,
)
from repro.core.instrumentation import SwitchTelemetryMixin
from repro.core.sources import BatchRenewalSource, PacketSource, SaturatingSource
from repro.core.switch import PipelinedSwitchConfig
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


class ArrivalTape(Protocol):
    """Window-batched view of a packet source (see BatchRenewalSource)."""

    def batch_arrivals(
        self, start: int, stop: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]: ...

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
    adapter consumes the *same* ``SaturatingSource`` stream the checked and
    fast kernels would.
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


_LEAN_TABLES: dict[
    int, tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]
] = {}


def _lean_tables(
    n: int,
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Bitmask lookup tables for the lean engine, cached per port count.

    ``bits[mask]`` lists the set bits of ``mask`` ascending (C-level tuple
    iteration replaces lowest-set-bit loops); ``first[ptr][mask]`` is the
    first set bit of ``mask`` in cyclic order from ``ptr`` — the round-robin
    pick as one table lookup — or -1 for an empty mask.
    """
    cached = _LEAN_TABLES.get(n)
    if cached is None:
        size = 1 << n
        bits = tuple(
            tuple(k for k in range(n) if mask >> k & 1) for mask in range(size)
        )
        first = tuple(
            tuple(
                next(
                    ((ptr + d) % n for d in range(n) if mask >> (ptr + d) % n & 1),
                    -1,
                )
                for mask in range(size)
            )
            for ptr in range(n)
        )
        cached = (bits, first)
        _LEAN_TABLES[n] = cached
    return cached


class BatchPipelinedSwitch(SwitchTelemetryMixin):
    """Cycle-batched kernel: bit-identical statistics at batch granularity.

    Drop-in for the other two kernels wherever statistics and telemetry are
    consumed: same ``run`` / ``drain`` / ``is_empty`` / ``warmup`` API, same
    ``stats``, wave counters and latency collectors, same telemetry stream.
    Statistics become visible at ``run()``/``drain()`` boundaries rather
    than per cycle — the logs are flushed when a batch completes.

    ``batch_cycles`` sets the ingestion window (arrival tape consumption
    and log-flush granularity); correctness is independent of it, which the
    equivalence tests assert by sweeping it, including ``batch_cycles=1``.
    """

    def __init__(
        self,
        config: PipelinedSwitchConfig,
        source: PacketSource,
        telemetry: Telemetry | None = None,
        sanitizer: Sanitizer | None = None,
        batch_cycles: int = DEFAULT_BATCH_CYCLES,
    ) -> None:
        ensure_wave_kernel_supported(_KERNEL, config, source)
        if config.credit_flow:
            raise reject_unsupported(
                _KERNEL,
                "input-credit flow control gates source polling on switch "
                "state, which defeats window-batched arrival ingestion; use "
                "the wave-level FastPipelinedSwitch",
            )
        if sanitizer is not None and sanitizer.enabled:
            raise reject_unsupported(
                _KERNEL,
                "the runtime sanitizer hooks every cycle and wave, which the "
                "batch kernel skips by design; sanitize on the checked or "
                "wave-level kernel",
            )
        self._tape: ArrivalTape
        if isinstance(source, BatchRenewalSource):
            self._tape = source
        elif isinstance(source, SaturatingSource):
            self._tape = _SaturatingTape(source)
        else:
            raise reject_unsupported(
                _KERNEL,
                f"{type(source).__name__} is polled cycle by cycle and cannot "
                f"be consumed as an arrival tape; use BatchRenewalSource (or "
                f"SaturatingSource), or the wave-level FastPipelinedSwitch",
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
        self._pend_dbit = [1] * n  # 1 << dst, kept in sync with _pend_dst
        self._pend_arr = [0] * n
        self._credits = [config.credits_per_input or 0] * n
        self._stream_end = [0] * n  # cycle each link's current packet tape ends
        self._chain: set[int] = set()
        self._qchecks: list[tuple[int, int]] = []  # (cycle, link) quantum heap
        self._rr_out = 0
        self._rr_in = 0
        self._busy_until = -1
        self._free_due: deque[int] = deque()
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
        self._wave_log: list[tuple[int, int, int, int, int, int]] = []
        self._drop_log: list[tuple[int, int, int, int, int, int]] = []
        self._arrive_log: list[tuple[int, int, int, int]] = []
        # (cycle, free, out_credits, queue_depths, drop_log_prefix, peak):
        # the prefix is len(_drop_log) at the sampling instant, so _flush can
        # reconstruct the drop taxonomy visible at each sample; peak is the
        # occupancy high-water mark at that instant.
        self._sample_log: list[
            tuple[int, int, tuple[int, ...], tuple[int, ...], int, int]
        ] = []
        self._pending_departures: deque[tuple[int, int, int, int, int, int]] = deque()
        # Lean-engine due deque: (cycle, output) events at which a CT/read
        # wave's output becomes usable again and its address releases (both
        # land on t0 + W).  Persisted across windows; replaces _free_due,
        # which stays empty on the lean engine.
        # Due events for the lean engine, encoded (cycle << 12 | output bit)
        # so the hot loop never builds or unpacks tuples.
        self._lean_due: deque[int] = deque()
        self._idle_flushed = 0
        self._deadline_flushed = 0
        self.attach_telemetry(telemetry)
        self.attach_sanitizer(sanitizer)
        # The dominant benchmark shape — single-quantum cut-through with
        # telemetry off — runs on a further-specialized engine whose
        # round-robin scans are O(1) bitmask rotations and whose next-wave-ok
        # expiries are due events (see _advance_window_lean).
        self._lean = (
            self._quanta == 1
            and config.cut_through
            and not self._tel
            and n <= 12  # mask-table size: 2**n entries
        )
        self._bits: tuple[tuple[int, ...], ...] = ()
        self._first: tuple[tuple[int, ...], ...] = ()
        if self._lean:
            self._bits, self._first = _lean_tables(n)

    def _telemetry_state(self) -> tuple[int, int, list[int]]:
        return (self.config.addresses - self._free, self._free,
                list(self._credits))

    def _queue_depths(self) -> list[int]:
        return [len(q) for q in self._queues]

    def _peak_occupancy(self) -> int:
        # Only the general engine maintains this: the lean engine exists for
        # the telemetry-off shape, where the gauge is never sampled.
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
            ac, al, ad = window_arrivals(self.cycle, t1)
            advance(t1, ac, al, ad)
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
                if self._free_due:
                    target = max(target, self._free_due[-1] + 1)
                self._advance_window(target, no_arrivals, no_arrivals,
                                     no_arrivals)
            else:
                # Waves still to issue: advance in windows, stopping the
                # moment the last queue/pending store resolves so the final
                # closed-form step above lands on the exact first empty
                # cycle (the wave kernel's drain length, bit for bit).
                self._advance_window(self.cycle + self.batch_cycles,
                                     no_arrivals, no_arrivals, no_arrivals,
                                     draining=True)
        self._flush()
        return self.cycle - start

    def is_empty(self) -> bool:
        return (
            self._free == self.config.addresses
            and not self._free_due
            and not self._chain
            and self.cycle > self._busy_until
            and all(self.cycle >= e for e in self._stream_end)
            and all(u < 0 for u in self._pend_uid)
            and all(not q for q in self._queues)
        )

    # -- the batch engine -----------------------------------------------------
    def _advance_window(
        self,
        stop: int,
        arr_c: list[int],
        arr_l: list[int],
        arr_d: list[int],
        draining: bool = False,
    ) -> None:
        """Advance to exactly ``stop``, given the window's arrival tape.

        Scalar skip-ahead core: one iteration per *actionable* cycle, with
        idle spans between them accounted in closed form.  State lives in
        hoisted locals; statistics/telemetry consequences are appended to
        the window logs and applied by :meth:`_flush`.
        """
        if self._lean:
            self._advance_window_lean(stop, arr_c, arr_l, arr_d, draining)
            return
        t = self.cycle
        n = self._n
        b = self._b
        w = self._w
        quanta = self._quanta
        extra = self._extra
        rtt = self.config.downstream_rtt
        cut_through = self.config.cut_through
        free = self._free
        addresses = self.config.addresses
        peak_occ = self._peak_occ
        free_due = self._free_due
        returns = self._credit_returns
        queues = self._queues
        next_ok = self.next_wave_ok
        out_credits = self._out_credits
        chain = self._chain
        chain_offsets = self._chain_offsets
        pend_uid = self._pend_uid
        pend_arr = self._pend_arr
        pend_dst = self._pend_dst
        stream_end = self._stream_end
        qchecks = self._qchecks
        unobstructed = self._unobstructed
        warmup = self.stats.warmup
        next_uid = self._next_uid
        rr_out = self._rr_out
        rr_in = self._rr_in
        busy_until = self._busy_until
        wlog_append = self._wave_log.append
        dlog_append = self._drop_log.append
        alog_append = self._arrive_log.append
        sample_log = self._sample_log
        policy_trivial = self._policy_trivial
        policy_admit = self.policy.admit
        offered = accepted = dropped = 0
        idle = 0
        deadline = 0
        write_waves = ct_waves = read_waves = 0
        overruns = 0
        policy_drops = 0
        ai = 0
        n_arr = len(arr_c)
        tel_iv = self.telemetry.sample_interval if self._tel else 0
        if tel_iv:
            next_sample = ((t + tel_iv - 1) // tel_iv) * tel_iv
        else:
            next_sample = stop

        while t < stop:
            # -- phase 0: due consequences of past departures ------------------
            while returns and returns[0][0] <= t:
                out_credits[returns.popleft()[1]] += 1
            while free_due and free_due[0] <= t:
                free_due.popleft()
                free += quanta
            if t == next_sample:
                sample_log.append((t, free, tuple(out_credits),
                                   tuple(len(q) for q in queues),
                                   len(self._drop_log), peak_occ))
                next_sample += tel_iv
            # -- phase 1: departures are log-derived (see _flush) --------------
            # -- phase 2: arbitration ------------------------------------------
            started = False
            if t in chain:
                chain.discard(t)
                started = True  # chain continuation owns the cycle
            else:
                chain_free = True
                if chain:
                    for off in chain_offsets:
                        if t + off in chain:
                            chain_free = False
                            break
                have_writes = False
                urgent_i = -1
                urgent_arr = 0
                ct_best: dict[int, tuple[int, int]] | None = None
                if chain_free and free >= quanta:
                    for i in range(n):
                        if pend_uid[i] < 0:
                            continue
                        arr = pend_arr[i]
                        if arr >= t:
                            continue
                        have_writes = True
                        if arr + b <= t and (urgent_i < 0 or arr < urgent_arr):
                            urgent_i = i
                            urgent_arr = arr
                        if cut_through:
                            d = pend_dst[i]
                            if ct_best is None:
                                ct_best = {d: (arr, i)}
                            elif d not in ct_best or arr < ct_best[d][0]:
                                ct_best[d] = (arr, i)
                wr_i = -1  # plain-store input chosen this cycle
                ct_i = -1  # cut-through input and output chosen this cycle
                ct_j = -1
                if urgent_i >= 0:
                    j = pend_dst[urgent_i]
                    if (
                        ct_best is not None
                        and ct_best.get(j, (0, -1))[1] == urgent_i
                        and not queues[j]
                        and next_ok[j] <= t
                        and out_credits[j] != 0
                    ):
                        rr_out = (j + 1) % n
                        ct_i = urgent_i
                        ct_j = j
                    else:
                        rr_in = (urgent_i + 1) % n
                        wr_i = urgent_i
                else:
                    if chain_free:
                        for off in range(n):
                            j = rr_out + off
                            if j >= n:
                                j -= n
                            if next_ok[j] > t or out_credits[j] == 0:
                                continue
                            q = queues[j]
                            if q:
                                if not cut_through and q[0][2] + w > t:
                                    continue  # store-and-forward: not stored yet
                                rr_out = (j + 1) % n
                                uid, arr_q, _winit, src = q.popleft()
                                for off2 in chain_offsets:
                                    chain.add(t + off2)
                                next_ok[j] = t + w
                                if out_credits[j] >= 0:
                                    out_credits[j] -= 1
                                    returns.append((t + w + rtt, j))
                                free_due.append(t + w)
                                tail = t + w + extra
                                if tail > busy_until:
                                    busy_until = tail
                                read_waves += 1
                                wlog_append((t, _READ, uid, src, j, arr_q))
                                started = True
                                break
                            if ct_best is not None and j in ct_best:
                                rr_out = (j + 1) % n
                                ct_i = ct_best[j][1]
                                ct_j = j
                                break
                    if not started and ct_i < 0 and have_writes:
                        best = -1
                        best_arr = 0
                        for off in range(n):
                            i2 = rr_in + off
                            if i2 >= n:
                                i2 -= n
                            if pend_uid[i2] >= 0 and pend_arr[i2] < t:
                                if best < 0 or pend_arr[i2] < best_arr:
                                    best = i2
                                    best_arr = pend_arr[i2]
                        rr_in = (best + 1) % n
                        wr_i = best
                # Shared store consequences (plain or cut-through write).
                if ct_i >= 0 or wr_i >= 0:
                    i = ct_i if ct_i >= 0 else wr_i
                    uid = pend_uid[i]
                    arr = pend_arr[i]
                    if arr + b <= t:
                        deadline += 1
                    free -= quanta
                    occ = addresses - free
                    if occ > peak_occ:
                        peak_occ = occ
                    pend_uid[i] = -1
                    if arr >= warmup:
                        accepted += 1
                    for off2 in chain_offsets:
                        chain.add(t + off2)
                    if ct_i >= 0:
                        next_ok[ct_j] = t + w
                        if out_credits[ct_j] >= 0:
                            out_credits[ct_j] -= 1
                            returns.append((t + w + rtt, ct_j))
                        free_due.append(t + w)
                        tail = t + w + extra
                        if tail > busy_until:
                            busy_until = tail
                        ct_waves += 1
                        wlog_append((t, _CT, uid, i, ct_j, arr))
                    else:
                        queues[pend_dst[i]].append((uid, arr, t, i))
                        write_waves += 1
                        wlog_append((t, _STORE, uid, i, pend_dst[i], arr))
                        if t + w > busy_until:
                            busy_until = t + w
                    started = True
                if not started:
                    idle += 1
            # -- phase 4: arrivals and quantum-boundary checks -----------------
            if ai < n_arr and arr_c[ai] == t:
                if quanta == 1 and not (qchecks and qchecks[0][0] == t):
                    while ai < n_arr and arr_c[ai] == t:
                        i = arr_l[ai]
                        d = arr_d[ai]
                        ai += 1
                        if pend_uid[i] >= 0:
                            if pend_arr[i] >= warmup:
                                dropped += 1
                            overruns += 1
                            unobstructed.discard(pend_uid[i])
                            dlog_append((t, pend_uid[i], i, pend_dst[i],
                                         _HEAD, pend_arr[i]))
                            pend_uid[i] = -1
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
                            pend_uid[i] = uid
                            pend_dst[i] = d
                            pend_arr[i] = t
                        if t >= warmup:
                            offered += 1
                            if (
                                admitted
                                and next_ok[d] <= t + 1
                                and not queues[d]
                            ):
                                clear = True
                                for k in range(n):
                                    if (k != i and pend_uid[k] >= 0
                                            and pend_dst[k] == d):
                                        clear = False
                                        break
                                if clear:
                                    unobstructed.add(uid)
                        if not admitted:
                            if t >= warmup:
                                dropped += 1
                            policy_drops += 1
                            dlog_append((t, uid, i, d, _POLICY, t))
                        alog_append((t, uid, i, d))
                else:
                    # Multi-quantum path: merge packet starts and §3.5
                    # quantum-boundary checks in input-link order.
                    events: list[tuple[int, int, int]] = []
                    while ai < n_arr and arr_c[ai] == t:
                        events.append((arr_l[ai], 0, arr_d[ai]))
                        ai += 1
                    while qchecks and qchecks[0][0] == t:
                        events.append((heappop(qchecks)[1], 1, -1))
                    events.sort()
                    for i, is_check, d in events:
                        if is_check:
                            if pend_uid[i] >= 0:
                                if pend_arr[i] >= warmup:
                                    dropped += 1
                                overruns += 1
                                unobstructed.discard(pend_uid[i])
                                dlog_append((t, pend_uid[i], i, pend_dst[i],
                                             _QUANTUM, pend_arr[i]))
                                pend_uid[i] = -1
                            continue
                        if pend_uid[i] >= 0:
                            if pend_arr[i] >= warmup:
                                dropped += 1
                            overruns += 1
                            unobstructed.discard(pend_uid[i])
                            dlog_append((t, pend_uid[i], i, pend_dst[i],
                                         _HEAD, pend_arr[i]))
                            pend_uid[i] = -1
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
                            for m in range(1, quanta):
                                heappush(qchecks, (t + m * b, i))
                            pend_uid[i] = uid
                            pend_dst[i] = d
                            pend_arr[i] = t
                        if t >= warmup:
                            offered += 1
                            if (admitted and next_ok[d] <= t + 1
                                    and not queues[d]):
                                clear = True
                                for k in range(n):
                                    if (k != i and pend_uid[k] >= 0
                                            and pend_dst[k] == d):
                                        clear = False
                                        break
                                if clear:
                                    unobstructed.add(uid)
                        if not admitted:
                            if t >= warmup:
                                dropped += 1
                            policy_drops += 1
                            dlog_append((t, uid, i, d, _POLICY, t))
                        alog_append((t, uid, i, d))
            elif qchecks and qchecks[0][0] == t:
                while qchecks and qchecks[0][0] == t:
                    i = heappop(qchecks)[1]
                    if pend_uid[i] >= 0:
                        if pend_arr[i] >= warmup:
                            dropped += 1
                        overruns += 1
                        unobstructed.discard(pend_uid[i])
                        dlog_append((t, pend_uid[i], i, pend_dst[i],
                                     _QUANTUM, pend_arr[i]))
                        pend_uid[i] = -1
            if (
                draining
                and all(u < 0 for u in pend_uid)
                and all(not q for q in queues)
            ):
                t += 1
                break
            # -- advance: one cycle, or skip a provably idle span --------------
            if started:
                t += 1
                continue
            target = stop
            if ai < n_arr and arr_c[ai] < target:
                target = arr_c[ai]
            if qchecks and qchecks[0][0] < target:
                target = qchecks[0][0]
            if free_due and free_due[0] < target:
                target = free_due[0]
            if returns and returns[0][0] < target:
                target = returns[0][0]
            if chain:
                c = min(chain)
                if c < target:
                    target = c
            if next_sample < target:
                target = next_sample
            for i in range(n):
                if pend_uid[i] >= 0:
                    c = pend_arr[i] + 1
                    if t < c < target:
                        target = c
                q = queues[i]
                if q:
                    c = next_ok[i]
                    if c > t:
                        if c < target:
                            target = c
                    elif not cut_through:
                        c = q[0][2] + w
                        if t < c < target:
                            target = c
            if target <= t + 1:
                t += 1
            else:
                idle += target - 1 - t
                t = target

        # -- write back the hoisted state --------------------------------------
        self._free = free
        self._peak_occ = peak_occ
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
        stats = self.stats
        stats.offered += offered
        stats.accepted += accepted
        stats.dropped += dropped
        self.cycle = t
        stats.horizon = t

    def _advance_window_lean(
        self,
        stop: int,
        arr_c: list[int],
        arr_l: list[int],
        arr_d: list[int],
        draining: bool = False,
    ) -> None:
        """Specialized engine for the dominant shape: single-quantum
        cut-through with telemetry off.

        Bit-identical to the general engine (the equivalence tests cover
        both: telemetry rows run the general engine, bare-stats rows run
        this one).  The round-robin output/input scans become O(1) bitmask
        rotations, ``next_wave_ok`` expiries become a due-event deque so the
        idle-skip target needs no per-output scan, and departure-bearing
        waves append straight to the pending deque — with telemetry off no
        per-window logs are built at all.
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
        if not draining:
            # Departure-bearing waves start in tail order (same W for every
            # wave), so straddlers left over from the previous window all
            # depart before any wave this window starts.  Replaying them
            # here lets the hot loop below apply in-window departures
            # inline, in the wave kernel's exact order; a non-draining
            # window always runs to ``stop``, so ``tail < stop`` means the
            # departure is certain to have happened by window end.
            while pending and pending[0][0] < stop:
                _tail, d_uid, d_arr, _src, d_dst, d_t0 = pending.popleft()
                head = d_t0 + 1 + extra
                if head >= warmup:
                    stats.delivered += 1
                    stats.per_output_delivered[d_dst] += 1
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
        inline_deps = not draining
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
        # t0 + W, so one persistent due deque (self._lean_due) carries both
        # consequences; _free_due stays empty on this engine, and is_empty/
        # drain are covered by busy_until, which bounds every due.  New dues
        # land at t + W with t increasing, so the deque stays sorted.
        ok_mask = nonempty_mask = credit_mask = pend_mask = 0
        for j in range(n):
            if next_ok[j] <= t:
                ok_mask |= 1 << j
            if queues[j]:
                nonempty_mask |= 1 << j
            if out_credits[j] != 0:
                credit_mask |= 1 << j
            if pend_uid[j] >= 0:
                pend_mask |= 1 << j
        due = self._lean_due
        due_append = due.append
        due_popleft = due.popleft
        next_due = due[0] >> 12 if due else never
        next_ret = returns[0][0] if returns else never
        next_arr = arr_c[0] if n_arr else never

        while t < stop:
            # -- phase 0: due consequences of past departures ------------------
            if next_ret <= t:
                while returns and returns[0][0] <= t:
                    j = returns.popleft()[1]
                    out_credits[j] += 1
                    credit_mask |= 1 << j
                next_ret = returns[0][0] if returns else never
            if next_due <= t:
                while due and due[0] >> 12 <= t:
                    free += 1
                    ok_mask |= due_popleft() & 4095
                next_due = due[0] >> 12 if due else never
            # -- phase 2: arbitration ------------------------------------------
            started = False
            wave = False
            min_future = never
            if not pend_mask or not free:
                # No eligible pending store can start a wave (none pending,
                # or no free address), so only a plain read can go — skip
                # the gather/urgent/EDF machinery.  This covers the
                # majority of iterations at moderate load.
                if pend_mask:
                    for i in bits[pend_mask]:
                        a = pend_arr[i]
                        if t <= a < min_future:
                            min_future = a
                comb = ok_mask & credit_mask & nonempty_mask
                if comb:
                    j = first_rr[rr_out][comb]
                    bit = 1 << j
                    rr_out = j + 1 if j + 1 < n else 0
                    q = queues[j]
                    uid, arr_q, _winit, src = q.popleft()
                    if not q:
                        nonempty_mask ^= bit
                    read_waves += 1
                    wave = True
            else:
                # One gather pass over the pending stores computes what the
                # picks below need: the urgent candidate (min arrival,
                # lowest input), the targeted-output mask, and the earliest
                # not-yet-eligible pend for the idle skip.
                best_i = -1
                best_arr = 0
                dst_mask = 0
                for i in bits[pend_mask]:
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
                    # credited with an empty queue.
                    deadline += 1
                    uid = pend_uid[best_i]
                    free -= 1
                    pend_uid[best_i] = -1
                    pend_mask ^= 1 << best_i
                    if best_arr >= warmup:
                        accepted += 1
                    j = pend_dst[best_i]
                    bit = 1 << j
                    if avail & bit and not nonempty_mask & bit:
                        rr_out = j + 1 if j + 1 < n else 0
                        ct_waves += 1
                        arr_q = best_arr
                        src = best_i
                        wave = True
                    else:
                        rr_in = best_i + 1 if best_i + 1 < n else 0
                        queues[j].append((uid, best_arr, t, best_i))
                        nonempty_mask |= bit
                        write_waves += 1
                        if t + w > busy_until:
                            busy_until = t + w
                        started = True
                else:
                    ready = avail & nonempty_mask
                    comb = ready | (avail & dst_mask & (full ^ nonempty_mask))
                    if comb:
                        # First candidate output in cyclic order from
                        # rr_out — one table lookup.
                        j = first_rr[rr_out][comb]
                        bit = 1 << j
                        rr_out = j + 1 if j + 1 < n else 0
                        if ready & bit:
                            q = queues[j]
                            uid, arr_q, _winit, src = q.popleft()
                            if not q:
                                nonempty_mask ^= bit
                            read_waves += 1
                        else:
                            # Cut-through: minimum-arrival (lowest-input
                            # tie) eligible pend targeting j.
                            ci = -1
                            ca = 0
                            for i in bits[pend_mask]:
                                a = pend_arr[i]
                                if (a < t and pend_dst[i] == j
                                        and (ci < 0 or a < ca)):
                                    ci = i
                                    ca = a
                            uid = pend_uid[ci]
                            free -= 1
                            pend_uid[ci] = -1
                            pend_mask ^= 1 << ci
                            if ca >= warmup:
                                accepted += 1
                            arr_q = ca
                            src = ci
                            ct_waves += 1
                        wave = True
                    elif best_i >= 0:
                        # Plain store: earliest deadline first, round-robin
                        # tie-break from rr_in.  Resolved lazily here (only
                        # a third of waves are plain stores, so the gather
                        # pass skips the tie-break bookkeeping).
                        sel = -1
                        sa = 0
                        sd = 0
                        for i in bits[pend_mask]:
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
                        free -= 1
                        pend_uid[sel] = -1
                        pend_mask ^= 1 << sel
                        if sa >= warmup:
                            accepted += 1
                        d = pend_dst[sel]
                        queues[d].append((uid, sa, t, sel))
                        nonempty_mask |= 1 << d
                        write_waves += 1
                        if t + w > busy_until:
                            busy_until = t + w
                        started = True
            if wave:
                # Shared consequence of a departure-bearing wave (plain read
                # or cut-through) on output j: occupy the output and hold
                # the address until t + W, consume a downstream credit, and
                # apply the departure.  In-window departures (tail < stop on
                # a window that runs to stop) are applied inline — waves
                # start in tail order, so this is the wave kernel's exact
                # departure order; straddlers go to the pending deque.
                tw = t + w
                next_ok[j] = tw
                ok_mask ^= bit
                due_append(tw << 12 | bit)
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
                tail = tw + extra
                if tail > busy_until:
                    busy_until = tail
                started = True
                if inline_deps and tail < stop:
                    head = t + 1 + extra
                    if head >= warmup:
                        delivered += 1
                        per_out[j] += 1
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
                else:
                    pending_append((tail, uid, arr_q, src, j, t))
            # -- phase 4: arrivals ---------------------------------------------
            if next_arr == t:
                while ai < n_arr and arr_c[ai] == t:
                    i = arr_l[ai]
                    d = arr_d[ai]
                    ai += 1
                    ibit = 1 << i
                    if pend_mask & ibit:
                        if pend_arr[i] >= warmup:
                            dropped += 1
                        overruns += 1
                        unobstructed.discard(pend_uid[i])
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
                        admitted = policy_admit(d, free, held, 1)
                    if admitted:
                        pend_uid[i] = uid
                        pend_dst[i] = d
                        pend_dbit[i] = 1 << d
                        pend_arr[i] = t
                        pend_mask |= ibit
                    if t >= warmup:
                        offered += 1
                        if (admitted and next_ok[d] <= t + 1
                                and not nonempty_mask >> d & 1):
                            clear = True
                            for k in bits[pend_mask ^ ibit]:
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
                next_arr = arr_c[ai] if ai < n_arr else never
                # A pend created this cycle becomes eligible at t + 1; fold
                # it into the idle-skip wake target.
                if t < min_future:
                    min_future = t
            if draining and not pend_mask and not nonempty_mask:
                t += 1
                break
            # -- advance: one cycle, or skip a provably idle span --------------
            if started:
                t += 1
                continue
            idle += 1
            target = stop
            if next_arr < target:
                target = next_arr
            if next_due < target:
                target = next_due
            if next_ret < target:
                target = next_ret
            if min_future < never:
                c = min_future + 1
                if c < target:
                    target = c
            if target <= t + 1:
                t += 1
            else:
                idle += target - 1 - t
                t = target

        # -- write back the hoisted state --------------------------------------
        self._free = free
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

        Everything the wave kernel computes per cycle is derived here in
        closed form from the admission logs, *in the order the wave kernel
        would have produced it* — departure consequences replay in tail
        order (Welford accumulators and histogram float sums are
        order-sensitive), occupancy samples in sampling order.
        """
        tel = self._tel
        stats = self.stats
        warmup = stats.warmup
        w = self._w
        extra = self._extra
        last_done = self.cycle - 1  # tails <= the last executed cycle departed
        pending = self._pending_departures
        if tel:
            emit = self.telemetry.events.emit
            arrival_counts = [0] * self._n
            for t, uid, src, dst in self._arrive_log:
                emit(t, ARRIVE, uid, src=src, dst=dst)
                arrival_counts[src] += 1
            for src, count in enumerate(arrival_counts):
                if count:
                    self._m_arrivals[src].inc(count)
            # Taxonomy state before this flush's drops land; the per-sample
            # prefix walk below replays it to each sampling instant.
            sample_tax = dict(self._drop_tax)
            for t, uid, src, dst, cause, _arr in self._drop_log:
                self._emit_drop(t, src, uid, dst, _DROP_CAUSE[cause])
            for t0, kind, uid, src, dst, _arr in self._wave_log:
                self._emit_wave(t0, _WAVE_KIND[kind], uid, src, dst)
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
            for t, free, oc, depths, n_drops, peak in self._sample_log:
                occ = addresses - free
                self.telemetry.sample(t, occ)
                self._m_occupancy.set(occ)
                self._m_free.set(free)
                self._m_peak.set(peak)
                self._m_cycle.set(t)
                for gauge, depth in zip(self._m_qdepth, depths):
                    gauge.set(depth)
                for gauge, credits in zip(self._m_in_credits, self._credits):
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
        # Departure-bearing waves (READ / WRITE_CT) schedule a completion at
        # tail = t0 + W + wire_delay; admission order == tail order, so one
        # pass over (pending from earlier windows) + (this window's log)
        # replays the wave kernel's departure processing exactly.
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
        while pending and pending[0][0] <= last_done:
            tail, uid, arr, src, dst, t0 = popleft()
            head = t0 + 1 + extra
            if head >= warmup:
                delivered += 1
                per_out[dst] += 1
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
            if tel:
                emit(tail, DEPART, uid, src=src, dst=dst, aux=head)
                self._m_departures[dst].inc()
                if arr >= warmup:
                    self._m_latency.observe(head - arr)
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
