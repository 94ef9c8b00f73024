"""Wave-level fast kernel for the pipelined-memory switch.

:class:`~repro.core.switch.PipelinedSwitch` is the *checked* model: it moves
every one of the ``B`` words of every wave through Python latch, bus and bank
objects so that each structural hazard the paper argues away raises if it
ever occurs.  That is the right tool for verifying the §3.2–§3.3 correctness
argument — and the wrong tool for long-horizon and large-``n`` experiments,
where the per-word object traffic dominates wall clock.

:class:`FastPipelinedSwitch` simulates the *same machine* at wave
granularity: one arbiter decision per cycle, packets as integer records in
preallocated numpy arrays, and every word-level consequence of a wave
(delivery times, buffer release, credit returns, control/pipe occupancy)
computed arithmetically from the wave's initiation cycle.  It reproduces the
checked model's arbitration *exactly* — urgent-store deadline overrides,
READS_FIRST policy with the round-robin pointers, WRITE_CT cut-through
eligibility, §3.5 chain-slot reservations — and it polls the packet source
in the identical per-cycle pattern, so on the same seed its
:class:`~repro.sim.stats.SwitchStats`, wave counters and latency histograms
are **bit-identical** to the checked model's.  ``tests/core/test_fastpath.py``
enforces this over a config matrix and with property-based random configs.

What the fast path does *not* do is check invariants: no bank-conflict, bus
contention, latch-overrun or payload-integrity detection.  The checked model
remains the oracle; the fast kernel is for experiments whose shape the
oracle has already validated.  Configurations whose arbitration it does not
replicate (the E5 ablation policies ``WRITES_FIRST`` / ``OLDEST_FIRST``)
are refused with :class:`FastPathUnsupportedError` rather than silently
approximated.

The ``pipelined_fast`` scenario arch runs this kernel only for what the
batch kernel (:mod:`repro.core.batchpath`) refuses: per-cycle sources
(``RenewalPacketSource``, ``TracePacketSource``, ``SlotAdapterSource``),
the saturating source under credit flow, and an enabled sanitizer.
``make_pipelined_switch(kernel="fast")`` and this class still build it
directly, which the equivalence matrices and benchmarks use.
"""

from __future__ import annotations

import math
from collections import deque
from typing import TYPE_CHECKING

import numpy as np

from repro.core.arbiter import Priority
from repro.core.errors import ConfigError
from repro.core.instrumentation import SwitchTelemetryMixin
from repro.core.sources import PacketSource
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

if TYPE_CHECKING:
    from repro.core.batchpath import BatchPipelinedSwitch

# Column layout of the per-packet record array.
_ARRIVAL, _WRITE_INIT, _SRC, _DST = range(4)


class FastPathUnsupportedError(ConfigError):
    """The fast kernel does not model this configuration; use the checked
    :class:`~repro.core.switch.PipelinedSwitch` instead."""


def reject_unsupported(kernel: str, reason: str) -> FastPathUnsupportedError:
    """Uniform refuse-don't-approximate error for the derived kernels.

    Both the wave-level and the batch kernel trade generality for speed;
    any configuration they do not replicate *exactly* must be refused, not
    approximated.  Routing every refusal through this helper keeps the
    message shape (and the exception type tests rely on) identical across
    kernels and unsupported-config branches.
    """
    return FastPathUnsupportedError(
        f"{kernel} does not model this configuration: {reason} — "
        f"run it on the checked PipelinedSwitch"
    )


def wave_kernel_refusal(
    config: PipelinedSwitchConfig, source: PacketSource
) -> str | None:
    """Why the wave and batch kernels refuse this pair, or ``None``."""
    if source.n_out != config.n:
        return f"source targets {source.n_out} outputs, switch has {config.n}"
    if source.packet_words != config.packet_words:
        return (f"source packets are {source.packet_words} words, switch "
                f"needs {config.packet_words} (pipeline depth)")
    if config.priority is not Priority.READS_FIRST:
        return (f"only the paper's READS_FIRST arbitration is modelled; "
                f"{config.priority} is an ablation policy")
    return None


class FastPipelinedSwitch(SwitchTelemetryMixin):
    """Wave-level kernel: bit-identical statistics, no per-word objects.

    Drop-in for :class:`~repro.core.switch.PipelinedSwitch` wherever only
    statistics are consumed: same constructor signature, same ``run`` /
    ``drain`` / ``is_empty`` / ``warmup`` API, same ``stats``, wave counters
    and latency collectors.  It does not expose banks, buses, latches,
    sinks or the tracer — there are no words to trace.  It *does* produce
    the full :mod:`repro.telemetry` event stream: every lifecycle event a
    packet would generate word by word is computed in closed form from its
    wave's admission cycle, and the equivalence tests pin the resulting
    stream to the checked model's event for event.
    """

    def __init__(
        self,
        config: PipelinedSwitchConfig,
        source: PacketSource,
        telemetry: Telemetry | None = None,
        sanitizer: Sanitizer | None = None,
    ) -> None:
        reason = wave_kernel_refusal(config, source)
        if reason is not None:
            raise reject_unsupported("fast path", reason)
        self.config = config
        self.source = source
        n = config.n
        self.cycle = 0
        self.next_wave_ok = [0] * n  # per-output earliest next departure wave
        # -- static shorthands -------------------------------------------------
        self._n = n
        self._b = config.depth
        self._w = config.packet_words  # quanta * depth: words per packet
        self._quanta = config.quanta
        self._extra = 2 * config.link_pipeline_stages  # §4.3 wire registers
        self._chain_offsets = [q * self._b for q in range(1, config.quanta)]
        # -- packet records: preallocated numpy ring, indexed by uid -----------
        # In-flight packets are bounded by the buffer plus the per-link
        # streaming/pending state; size the ring with slack and index uid&mask.
        cap = 1
        while cap < 4 * (config.addresses * config.quanta + 4 * n + 8):
            cap <<= 1
        self._mask = cap - 1
        self._rec = np.zeros((cap, 4), dtype=np.int64)
        self._next_uid = 0
        # -- buffer manager state: free-address count plus per-output FIFO
        # queues of (uid, arrival, write_init, src) int tuples ------------------
        self._free = config.addresses
        self._peak_occ = 0
        self._queues: list[deque[tuple[int, int, int, int]]] = [
            deque() for _ in range(n)
        ]
        # -- per-input streaming state (plain int lists; -1 = none) ------------
        self._in_uid = [-1] * n  # packet currently streaming in
        self._in_next = [0] * n  # its next word index
        self._pend_uid = [-1] * n  # pending store request
        self._pend_dst = [0] * n
        self._pend_arr = [0] * n
        self._credits = [config.credits_per_input or 0] * n
        # -- wave bookkeeping --------------------------------------------------
        self._chain: set[int] = set()  # reserved future initiation slots
        self._rr_out = 0
        self._rr_in = 0
        self._muted = False  # drain(): stop polling the source
        self._busy_until = -1  # control pipeline / output stream occupancy
        # Departure consequences, each a FIFO because initiation cycles are
        # strictly increasing (one wave per cycle):
        self._free_due: deque[int] = deque()  # cycle the addresses free up
        self._credit_due: deque[tuple[int, int]] = deque()  # (cycle, src input)
        self._stats_due: deque[tuple[int, int, int]] = deque()  # (tail, uid, t0)
        self._out_credits = [
            config.downstream_credits if config.downstream_credits is not None else -1
        ] * n
        self._credit_returns: deque[tuple[int, int]] = deque()  # (cycle, output)
        # -- statistics (identical collectors to the checked model) ------------
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
        # Cycle at which a finite source (trace replay) ran dry with the
        # switch empty; ``None`` while the source can still produce packets.
        self.trace_ended_at: int | None = None
        self.attach_telemetry(telemetry)
        self.attach_sanitizer(sanitizer)

    def _telemetry_state(self) -> tuple[int, int, list[int]]:
        return (self.config.addresses - self._free, self._free,
                list(self._credits))

    def _queue_depths(self) -> list[int]:
        return [len(q) for q in self._queues]

    def _peak_occupancy(self) -> int:
        return self._peak_occ

    # -- public API -------------------------------------------------------------
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
        """Advance the switch by ``cycles`` clock cycles.

        Mirrors the checked kernel: a finite source (trace replay) ends the
        run as soon as it is exhausted and the switch has emptied, stamping
        :attr:`trace_ended_at`.  The check runs before each tick so a
        resumed, already-finished run burns zero cycles.
        """
        tick = self.tick
        exhausted = getattr(self.source, "exhausted", None)
        if exhausted is None:
            for _ in range(cycles):
                tick()
            return self.stats
        stop = self.cycle + cycles
        while self.cycle < stop:
            if exhausted() and self.is_empty():
                if self.trace_ended_at is None:
                    self.trace_ended_at = self.cycle
                    if self._tel:
                        self._emit_trace_ended(self.cycle)
                break
            tick()
        return self.stats

    def drain(self, max_cycles: int = 1_000_000) -> int:
        """Run with the source muted until all in-flight packets depart."""
        self._muted = True
        try:
            start = self.cycle
            while not self.is_empty():
                if self.cycle - start > max_cycles:
                    raise RuntimeError(
                        f"switch failed to drain within {max_cycles} cycles: "
                        f"{sum(len(q) for q in self._queues)} packets still queued"
                    )
                self.tick()
            return self.cycle - start
        finally:
            self._muted = False

    def is_empty(self) -> bool:
        return (
            self._free == self.config.addresses
            and not self._stats_due
            and not self._free_due
            and not self._credit_due
            and not self._chain
            and self.cycle > self._busy_until
            and all(u < 0 for u in self._in_uid)
            and all(u < 0 for u in self._pend_uid)
            and all(not q for q in self._queues)
        )

    # -- one clock cycle ----------------------------------------------------------
    def tick(self) -> None:
        """One clock in the checked model's phase order: downstream credit
        returns, output deliveries, arbitration, (waves are implicit),
        arrivals."""
        t = self.cycle
        # Downstream credits whose RTT elapsed (checked model phase 0).
        returns = self._credit_returns
        while returns and returns[0][0] <= t:
            self._out_credits[returns.popleft()[1]] += 1
        # Buffer addresses released by a departure chain become visible to
        # arbitration the cycle after the chain's last stage executed —
        # i.e. at t0 + quanta*B (the checked model frees them in its phase 3
        # of cycle t0 + quanta*B - 1, after that cycle's arbitration).
        free_due = self._free_due
        while free_due and free_due[0] <= t:
            free_due.popleft()
            self._free += self._quanta
        # Start-of-cycle sampling instant: downstream credits and buffer
        # releases due by now are visible, this cycle's waves/arrivals are
        # not — exactly the state the checked model samples at.
        if self._tel:
            iv = self.telemetry.sample_interval
            if iv and t % iv == 0:
                self._sample_telemetry(t)
        # Tail words reaching the output links this cycle (phase 1): all the
        # per-word delivery/latency accounting collapses to one completion
        # event at t0 + quanta*B + wire_delay.
        stats_due = self._stats_due
        while stats_due and stats_due[0][0] <= t:
            tail, uid, t0 = stats_due.popleft()
            rec = self._rec[uid & self._mask]
            arrival = int(rec[_ARRIVAL])
            head = t0 + 1 + self._extra
            if self._san:
                self.sanitizer.packet_delivered(t, uid)
            self.stats.record_departure(int(rec[_DST]), arrival, head)
            if arrival >= self.stats.warmup:
                ct = head - arrival
                self.ct_latency.add(ct)
                self.ct_latency_hist.add(ct)
                self.total_latency.add(tail - arrival)
                if uid in self._unobstructed:
                    self.stagger_extra.add(ct - 2)
            self._unobstructed.discard(uid)
            if self._tel:
                dst = int(rec[_DST])
                self.telemetry.events.emit(
                    tail, DEPART, uid, src=int(rec[_SRC]), dst=dst, aux=head
                )
                self._m_departures[dst].inc()
                if arrival >= self.stats.warmup:
                    self._m_latency.observe(head - arrival)
        # Phase 2: wave arbitration (a reserved chain slot owns the cycle).
        if t in self._chain:
            self._chain.discard(t)
            if self._san:
                self.sanitizer.wave_initiated(t, -1)  # chain continuation
        else:
            self._arbitrate(t)
        # Input credits return when the departure chain's last stage executes
        # (checked model phase 3 of t0 + quanta*B - 1), which is *before*
        # the same cycle's arrival phase.
        credit_due = self._credit_due
        while credit_due and credit_due[0][0] <= t:
            self._credits[credit_due.popleft()[1]] += 1
        # Phase 4: word arrivals.
        self._accept_arrivals(t)
        if self._san:
            in_flight = (
                sum(1 for u in self._pend_uid if u >= 0)
                + sum(len(q) for q in self._queues)
                + len(self._stats_due)
            )
            self.sanitizer.end_cycle(t, in_flight)
        self.cycle = t + 1
        self.stats.horizon = self.cycle

    # -- arbitration ------------------------------------------------------------
    def _arbitrate(self, t: int) -> None:
        n = self._n
        b = self._b
        chain = self._chain
        chain_free = True
        if chain:
            for off in self._chain_offsets:
                if t + off in chain:
                    chain_free = False
                    break
        pend_uid = self._pend_uid
        pend_arr = self._pend_arr
        pend_dst = self._pend_dst
        cut_through = self.config.cut_through
        room = self._free >= self._quanta

        # One pass over the pending stores: open-window inputs, the urgent
        # (deadline-reached) store, and the per-output best cut-through
        # candidate (min arrival, lowest input index breaking ties).
        have_writes = False
        urgent_i = -1
        urgent_arr = 0
        ct_best: dict[int, tuple[int, int]] | None = None  # dst -> (arr, input)
        if chain_free and room:
            for i in range(n):
                if pend_uid[i] < 0 or pend_arr[i] >= t:
                    continue
                arr = pend_arr[i]
                have_writes = True
                if arr + b <= t and (urgent_i < 0 or arr < urgent_arr):
                    urgent_i = i  # earliest deadline; ties fall to lowest i
                    urgent_arr = arr
                if cut_through:
                    d = pend_dst[i]
                    if ct_best is None:
                        ct_best = {d: (arr, i)}
                    elif d not in ct_best or arr < ct_best[d][0]:
                        ct_best[d] = (arr, i)

        next_ok = self.next_wave_ok
        out_credits = self._out_credits
        queues = self._queues

        # Urgent stores override everything; an urgent store still cuts
        # through when its own output would have accepted it as a candidate.
        if urgent_i >= 0:
            j = pend_dst[urgent_i]
            if (
                ct_best is not None
                and ct_best.get(j, (0, -1))[1] == urgent_i
                and not queues[j]
                and next_ok[j] <= t
                and out_credits[j] != 0
            ):
                self._rr_out = (j + 1) % n
                self._start_write(t, urgent_i, ct_out=j)
            else:
                self._rr_in = (urgent_i + 1) % n
                self._start_write(t, urgent_i, ct_out=-1)
            return

        # READS_FIRST: the first departure-eligible output in round-robin
        # order from the pointer (that *is* the arbiter's min over
        # (j - ptr) % n), else the preferred store.
        if chain_free:
            ptr = self._rr_out
            w = self._w
            for off in range(n):
                j = ptr + off
                if j >= n:
                    j -= n
                if next_ok[j] > t or out_credits[j] == 0:
                    continue
                q = queues[j]
                if q:
                    if not cut_through and q[0][2] + w > t:
                        continue  # store-and-forward ablation: store not done
                    self._rr_out = (j + 1) % n
                    self._start_read(t, j)
                    return
                if ct_best is not None and j in ct_best:
                    self._rr_out = (j + 1) % n
                    self._start_write(t, ct_best[j][1], ct_out=j)
                    return
        if have_writes:
            # Earliest deadline (= arrival) first, round-robin tie-break.
            ptr = self._rr_in
            best = -1
            best_arr = 0
            for off in range(n):
                i = ptr + off
                if i >= n:
                    i -= n
                if pend_uid[i] >= 0 and pend_arr[i] < t:
                    if best < 0 or pend_arr[i] < best_arr:
                        best = i
                        best_arr = pend_arr[i]
            self._rr_in = (best + 1) % n
            self._start_write(t, best, ct_out=-1)
            return
        self.idle_cycles += 1
        if self._tel:
            self._m_idle.inc()

    # -- wave initiations --------------------------------------------------------
    def _reserve_chain(self, t: int) -> None:
        for off in self._chain_offsets:
            self._chain.add(t + off)

    def _start_departure_chain(self, t: int, j: int, uid: int, src: int) -> None:
        """Consequences shared by READ and WRITE_CT initiations at ``t``."""
        w = self._w
        self.next_wave_ok[j] = t + w
        if self._out_credits[j] >= 0:
            self._out_credits[j] -= 1
            self._credit_returns.append((t + w + self.config.downstream_rtt, j))
        self._free_due.append(t + w)
        if self.config.credit_flow:
            self._credit_due.append((t + w - 1, src))
        tail = t + w + self._extra
        self._stats_due.append((tail, uid, t))
        if tail > self._busy_until:
            self._busy_until = tail

    def _start_read(self, t: int, j: int) -> None:
        uid, _arrival, _winit, src = self._queues[j].popleft()
        if self._san:
            self.sanitizer.wave_initiated(t, uid)
        self._reserve_chain(t)
        self._start_departure_chain(t, j, uid, src)
        self.plain_read_waves += 1
        if self._tel:
            self._emit_wave(t, READ_WAVE, uid, src, j)

    def _start_write(self, t: int, i: int, ct_out: int) -> None:
        uid = self._pend_uid[i]
        arrival = self._pend_arr[i]
        dst = self._pend_dst[i]
        if arrival + self._b <= t:
            self.deadline_overrides += 1
            if self._tel:
                self._m_deadline.inc()
        if self._san:
            self.sanitizer.wave_initiated(t, uid)
        self._free -= self._quanta
        occ = self.config.addresses - self._free
        if occ > self._peak_occ:
            self._peak_occ = occ
        self._rec[uid & self._mask][_WRITE_INIT] = t
        self._pend_uid[i] = -1
        self.stats.record_accept(arrival)
        self._reserve_chain(t)
        if ct_out >= 0:  # WRITE_CT: store and depart in the same chain
            self._start_departure_chain(t, ct_out, uid, i)
            self.cut_through_waves += 1
            if self._tel:
                self._emit_wave(t, CUT_THROUGH, uid, i, ct_out)
        else:
            self._queues[dst].append((uid, arrival, t, i))
            self.write_waves += 1
            if self._tel:
                self._emit_wave(t, STORE_WAVE, uid, i, dst)
            busy = t + self._w  # control occupied through the chain's last stage
            if busy > self._busy_until:
                self._busy_until = busy

    # -- arrivals ----------------------------------------------------------------
    def _accept_arrivals(self, t: int) -> None:
        b = self._b
        w = self._w
        n = self._n
        in_uid = self._in_uid
        in_next = self._in_next
        pend_uid = self._pend_uid
        credit_flow = self.config.credit_flow
        for i in range(n):
            if in_uid[i] < 0:
                if credit_flow and self._credits[i] <= 0:
                    continue
                if self._muted:
                    continue
                dst = self.source.maybe_start(t, i)
                if dst is None:
                    continue
                if not 0 <= dst < n:
                    raise ValueError(f"source produced bad destination {dst}")
                self._start_packet(t, i, dst)
            k = in_next[i]
            if k > 0 and k % b == 0 and pend_uid[i] >= 0:
                # The packet's next quantum reuses input latch 0 while its
                # store chain never started: the packet is lost.
                self._drop_pending(t, i, DROP_QUANTUM_OVERRUN)
            k += 1
            if k == w:
                in_uid[i] = -1
                in_next[i] = 0
            else:
                in_next[i] = k

    def _start_packet(self, t: int, i: int, dst: int) -> None:
        if self._pend_uid[i] >= 0:
            if self.config.credit_flow:
                raise DeadlineMissedError(
                    f"input {i}: packet {self._pend_uid[i]} overrun at cycle "
                    f"{t} despite credit flow control"
                )
            self._drop_pending(t, i, DROP_HEAD_OVERRUN)
        uid = self._next_uid
        self._next_uid = uid + 1
        rec = self._rec[uid & self._mask]
        rec[_ARRIVAL] = t
        rec[_WRITE_INIT] = -1
        rec[_SRC] = i
        rec[_DST] = dst
        self._in_uid[i] = uid
        self._in_next[i] = 0
        admitted = self._policy_trivial or self._policy_admits(t, dst)
        if admitted:
            self._pend_uid[i] = uid
            self._pend_dst[i] = dst
            self._pend_arr[i] = t
        if self._san:
            self.sanitizer.packet_injected(t, uid)
        self.stats.record_offer(t)
        if self._tel:
            self.telemetry.events.emit(t, ARRIVE, uid, src=i, dst=dst)
            self._m_arrivals[i].inc()
        if not admitted:
            # Refused at the door: no pending store exists, so the packet
            # competes for nothing; its words still stream (and are
            # discarded) for the full W cycles, exactly as in the checked
            # kernel.
            if self._san:
                self.sanitizer.packet_dropped(t, uid)
            self.stats.record_drop(t)
            self.policy_drops += 1
            if self._tel:
                self._emit_drop(t, i, uid, dst, DROP_POLICY)
            return
        if (
            t >= self.stats.warmup
            and self.next_wave_ok[dst] <= t + 1
            and not self._queues[dst]
            and not any(
                self._pend_uid[k] >= 0 and self._pend_dst[k] == dst
                for k in range(self._n)
                if k != i
            )
        ):
            # §3.4 staggered-initiation instrumentation (see the checked model).
            self._unobstructed.add(uid)
        if self.config.credit_flow:
            self._credits[i] -= 1

    def _policy_admits(self, t: int, dst: int) -> bool:
        """Consult the admission policy.  ``self._free`` at the arrival
        phase *is* the canonical free count (phase-0 releases and this
        cycle's write already applied); ``held`` adds the at-most-one
        departure chain in flight per output to the queue depths."""
        next_ok = self.next_wave_ok
        held = [
            len(q) + (1 if next_ok[j] > t else 0)
            for j, q in enumerate(self._queues)
        ]
        return self.policy.admit(dst, self._free, held, self._quanta)

    def _drop_pending(self, t: int, i: int, cause: str) -> None:
        uid = self._pend_uid[i]
        if self._san:
            self.sanitizer.packet_dropped(t, uid)
        self.stats.record_drop(self._pend_arr[i])
        self.overrun_drops += 1
        self._unobstructed.discard(uid)
        if self._tel:
            self._emit_drop(t, i, uid, self._pend_dst[i], cause)
        self._pend_uid[i] = -1


def make_pipelined_switch(
    config: PipelinedSwitchConfig,
    source: PacketSource,
    fast: bool = False,
    telemetry: Telemetry | None = None,
    sanitizer: Sanitizer | None = None,
    kernel: str | None = None,
    batch_cycles: int | None = None,
) -> "PipelinedSwitch | FastPipelinedSwitch | BatchPipelinedSwitch":
    """Build one of the three kernels: checked, wave-level fast, or batch.

    Select with ``kernel`` (``"checked"`` / ``"fast"`` / ``"batch"``); the
    legacy ``fast=True`` flag is equivalent to ``kernel="fast"``.  All
    three produce bit-identical statistics on the same seed; the fast
    kernel skips every structural-invariant check (see module docstring)
    and the batch kernel additionally advances in cycle batches over an
    arrival tape (``batch_cycles`` sets the window).  Pass a
    :class:`~repro.telemetry.Telemetry` bundle to collect metrics and
    lifecycle events — the streams are equivalent between kernels.

    Every invalid configuration — bad :class:`PipelinedSwitchConfig`
    fields, a source whose shape does not match the switch, or an
    arbitration policy the fast kernel does not model — raises
    :class:`~repro.core.errors.ConfigError` (a ``ValueError``), never a
    bare assertion or type-specific exception, so callers can surface one
    clean error instead of a traceback.
    """
    if kernel is None:
        kernel = "fast" if fast else "checked"
    if kernel == "batch":
        from repro.core.batchpath import BatchPipelinedSwitch, DEFAULT_BATCH_CYCLES

        return BatchPipelinedSwitch(
            config, source, telemetry=telemetry, sanitizer=sanitizer,
            batch_cycles=DEFAULT_BATCH_CYCLES if batch_cycles is None
            else batch_cycles,
        )
    if batch_cycles is not None:
        raise ConfigError(
            f"batch_cycles only applies to the batch kernel, not {kernel!r}"
        )
    if kernel == "fast":
        return FastPipelinedSwitch(config, source, telemetry=telemetry,
                                   sanitizer=sanitizer)
    if kernel != "checked":
        raise ConfigError(
            f"unknown kernel {kernel!r}: expected 'checked', 'fast' or 'batch'"
        )
    return PipelinedSwitch(config, source, telemetry=telemetry,
                           sanitizer=sanitizer)
