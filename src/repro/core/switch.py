"""The pipelined-memory shared-buffer switch — the paper's contribution.

This is a word/cycle-accurate functional model of the datapath in paper
figures 4 and 5:

* ``B`` single-ported memory banks (default ``B = 2n``), each ``w`` bits wide
  and ``A`` addresses deep — a shared buffer of ``A`` packets of ``B`` words;
* an input latch row per incoming link (no double buffering);
* one shared output register row;
* a control pipeline: bank ``k`` executes bank ``k-1``'s operation one cycle
  later, so only stage 0 is arbitrated;
* automatic cut-through: a departure wave may coincide with (``WRITE_CT``) or
  follow any cycle after the store wave of the same packet.

Every structural hazard the paper argues away is *checked*, not assumed:
single-ported bank conflicts, tristate bus contention, input-latch overruns,
output-register double loads, and the store-deadline invariant all raise if
violated.  Running this switch at full load for long horizons without a
raise is the reproduction of the paper's §3.2–§3.3 correctness argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.arbiter import (
    Decision,
    Priority,
    ReadCandidate,
    WaveArbiter,
    WriteRequest,
)
from repro.core.bank import MemoryBank
from repro.core.buffer_manager import BufferManager, PacketRecord
from repro.core.bus import Bus
from repro.core.control import ControlPipeline, ControlWord, WaveOp
from repro.core.errors import ConfigError
from repro.core.latches import InputLatchRow, OutputRegisterRow
from repro.core.sources import PacketSink, PacketSource, deterministic_payload
from repro.core.instrumentation import SwitchTelemetryMixin
from repro.drc.sanitizer import Sanitizer
from repro.policy import AdmissionPolicy, parse_policy
from repro.sim.packet import Packet, Word
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


class DeadlineMissedError(Exception):
    """A store wave failed to initiate before its input latch was overrun
    while flow control promised that could not happen.

    The paper's one-wave-per-cycle budget (n stores + n departures per
    B = 2n cycles, section 3.2) makes this impossible under lossless
    operation; this exception existing — and never firing in the test suite —
    is the executable form of that argument.
    """


@dataclass(slots=True)
class PipelinedSwitchConfig:
    """Static configuration of a pipelined-memory switch.

    Defaults give the paper's canonical shape: ``B = n_in + n_out`` pipeline
    stages and packets of exactly ``B`` words.

    Telegraphos III is ``PipelinedSwitchConfig(n=8, addresses=256,
    width_bits=16)`` — 16 stages, 256 packets of 256 bits, 64 Kbit total.
    """

    n: int  # n x n switch
    addresses: int = 256  # buffer capacity in quanta (A)
    width_bits: int = 16  # link/word width w
    depth: int | None = None  # pipeline stages B (default 2n)
    quanta: int = 1  # packet size in buffer-width quanta (paper §3.5)
    priority: Priority = Priority.READS_FIRST
    cut_through: bool = True  # allow WRITE_CT / early READ waves
    credit_flow: bool = False  # lossless credit-based flow control
    credits_per_input: int | None = None  # default: addresses // n
    # Outgoing-link credit flow control (Telegraphos, §4.2: "the credit-based
    # flow control" lives in the outgoing-link logic): a departure wave for
    # output j may only start while j holds a downstream credit; the credit
    # returns ``downstream_rtt`` cycles after the packet's tail leaves.
    downstream_credits: int | None = None  # None = downstream never blocks
    downstream_rtt: int = 0
    # §4.3: in very fast technologies the long link wires are split into
    # pipeline stages ("the long lines carrying the input and output link
    # data can be split in two or more pipeline stages each ... all packet
    # data are delayed by an equal number of cycles ... the logic of the
    # switch operation remains unaffected").  Each extra stage adds one
    # cycle of constant latency on the input path and one on the output
    # path; throughput and function are untouched.
    link_pipeline_stages: int = 0
    # Shared-buffer admission policy (repro.policy): a spec string such as
    # "complete" / "static:cap=8" / "dynamic:alpha=1.0", an
    # AdmissionPolicy instance, or None; normalized to an instance here.
    policy: AdmissionPolicy | str | None = "complete"

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigError(f"need n >= 1, got {self.n}")
        if self.depth is None:
            self.depth = 2 * self.n
        if self.depth < 2:
            raise ConfigError(f"pipeline depth must be >= 2, got {self.depth}")
        if self.addresses < 1:
            raise ConfigError(f"need >= 1 buffer address, got {self.addresses}")
        if self.quanta < 1:
            raise ConfigError(f"packets are >= 1 quantum, got {self.quanta}")
        if self.addresses < self.quanta:
            raise ConfigError("buffer must hold at least one whole packet")
        if self.credit_flow and self.credits_per_input is None:
            self.credits_per_input = max(self.addresses // (self.n * self.quanta), 1)
        if self.downstream_credits is not None and self.downstream_credits < 1:
            raise ConfigError("downstream links need >= 1 credit")
        if self.downstream_rtt < 0:
            raise ConfigError("downstream RTT cannot be negative")
        if self.link_pipeline_stages < 0:
            raise ConfigError("link pipeline stages cannot be negative")
        self.policy = parse_policy(self.policy)
        self.policy.validate(n=self.n, addresses=self.addresses,
                             quanta=self.quanta)
        if self.credit_flow and not self.policy.trivial:
            # Credit flow promises losslessness; a refusing policy drops
            # packets the credit protocol already admitted upstream.
            raise ConfigError(
                f"credit_flow cannot be combined with a dropping admission "
                f"policy ('{self.policy.spec}'); use policy='complete'"
            )

    @property
    def packet_words(self) -> int:
        """Packet size in words: ``quanta`` waves of ``depth`` words each.

        The §3.5 rule — "the size of each packet (cell) be an integer
        multiple of a basic quantum" — with the quantum being the buffer
        width (one wave's worth of words).
        """
        return self.depth * self.quanta

    @property
    def buffer_bits(self) -> int:
        return self.depth * self.addresses * self.width_bits


@dataclass(slots=True)
class _InputState:
    """Per-input-link streaming state."""

    incoming: Packet | None = None
    next_word: int = 0
    pending: WriteRequest | None = None
    discard_current: bool = False
    credits: int = 0


class PipelinedSwitch(SwitchTelemetryMixin):
    """Cycle-accurate pipelined-memory shared-buffer switch (paper §3)."""

    def __init__(
        self,
        config: PipelinedSwitchConfig,
        source: PacketSource,
        telemetry: Telemetry | None = None,
        sanitizer: Sanitizer | None = None,
    ) -> None:
        if source.n_out != config.n:
            raise ConfigError(
                f"source targets {source.n_out} outputs, switch has {config.n}"
            )
        if source.packet_words != config.packet_words:
            raise ConfigError(
                f"source packets are {source.packet_words} words, switch "
                f"needs {config.packet_words} (pipeline depth)"
            )
        self.config = config
        self.source = source
        n, b = config.n, config.depth
        self.banks = [
            MemoryBank(config.addresses, config.width_bits, name=f"M{k}")
            for k in range(b)
        ]
        # Bus drive/sample state never crosses a cycle boundary, so the
        # snapshot codec skips it; restore rebuilds the buses fresh.
        self.buses = [Bus(f"stage{k}.data") for k in range(b)]
        self.in_latches = [InputLatchRow(i, b) for i in range(n)]
        self.out_row = OutputRegisterRow(b)
        self.control = ControlPipeline(b)
        self.arbiter = WaveArbiter(n, n, b, priority=config.priority)
        self.buffer = BufferManager(config.addresses, n)
        self.sinks = [PacketSink(j, config.packet_words) for j in range(n)]
        self.cycle = 0
        self.next_wave_ok = [0] * n  # per-output earliest next departure wave
        self._inputs = [
            _InputState(credits=config.credits_per_input or 0) for _ in range(n)
        ]
        self._departing: dict[int, PacketRecord] = {}  # uid -> in-flight departures
        # Future wave-chain reservations (§3.5 multi-quantum packets): wave
        # q of a packet's chain initiates exactly q*B cycles after wave 0,
        # so chain starts reserve their follow-up initiation slots here.
        self._chain: dict[int, ControlWord] = {}
        self._sent: dict[int, Packet] = {}  # uid -> packet, for integrity checks
        # §4.3 wire pipelining: a FIFO of (due_cycle, stage_k, word, link)
        # representing the extra link registers (both directions folded in).
        self._wire_pipe: list[tuple[int, int, object, int]] = []
        self._out_credits = [
            config.downstream_credits if config.downstream_credits is not None else -1
        ] * n  # -1 = unlimited
        self._credit_returns: list[tuple[int, int]] = []  # (cycle, output)
        # -- statistics -------------------------------------------------------
        self.stats = SwitchStats(n_outputs=n)  # packet granularity, cycle base
        self.ct_latency = Counter()  # head-in -> head-out, cycles
        self.ct_latency_hist = Histogram()
        self.total_latency = Counter()  # head-in -> tail-out, cycles
        self.cut_through_waves = 0
        self.plain_read_waves = 0
        self.write_waves = 0
        self.idle_cycles = 0
        self.deadline_overrides = 0
        self.overrun_drops = 0  # packets dropped because buffer stayed full
        self.policy_drops = 0  # packets refused by the admission policy
        # Admission policy (normalized by the config): trivial policies
        # (complete sharing) skip the per-arrival consult entirely, so the
        # seed hot path is untouched.
        self.policy: AdmissionPolicy = config.policy  # type: ignore[assignment]
        self._policy_trivial = self.policy.trivial
        # §3.4 instrumentation: packets that found their output idle and its
        # queue empty on arrival would leave with the 2-cycle minimum latency
        # were it not for staggered initiation; their extra delay is the
        # quantity the paper's (p/4)(n-1)/n formula approximates.
        self.stagger_extra = Counter()
        self._unobstructed: set[int] = set()
        # Cycle at which a finite source (trace replay) ran dry with the
        # switch empty; ``None`` while the source can still produce packets.
        self.trace_ended_at: int | None = None
        self.attach_telemetry(telemetry)
        self.attach_sanitizer(sanitizer)

    def _telemetry_state(self) -> tuple[int, int, list[int]]:
        return (self.buffer.occupancy, self.buffer.free_count,
                [s.credits for s in self._inputs])

    def _queue_depths(self) -> list[int]:
        return [len(q) for q in self.buffer.queues]

    def _peak_occupancy(self) -> int:
        return self.buffer.peak_occupancy

    # -- public API -------------------------------------------------------------
    @property
    def warmup(self) -> int:
        return self.stats.warmup

    @warmup.setter
    def warmup(self, cycles: int) -> None:
        self.stats.warmup = cycles

    def run(self, cycles: int) -> SwitchStats:
        """Advance the switch by ``cycles`` clock cycles.

        Finite sources (trace replay) end the run early: once the source
        reports :meth:`~repro.core.sources.TracePacketSource.exhausted` and
        the switch has emptied, further cycles cannot change any statistic,
        so the loop stops and stamps :attr:`trace_ended_at`.  The check runs
        *before* each tick, so resuming a finished run burns zero cycles and
        checkpoint/restore stays bit-identical.
        """
        exhausted = getattr(self.source, "exhausted", None)
        if exhausted is None:
            for _ in range(cycles):
                self.tick()
            return self.stats
        stop = self.cycle + cycles
        while self.cycle < stop:
            if exhausted() and self.is_empty():
                if self.trace_ended_at is None:
                    self.trace_ended_at = self.cycle
                    if self._tel:
                        self._emit_trace_ended(self.cycle)
                break
            self.tick()
        return self.stats

    def drain(self, max_cycles: int = 1_000_000) -> int:
        """Run with the source muted until all in-flight packets depart.

        Returns the number of drain cycles used; raises if the switch does
        not empty (which would indicate a scheduling bug).
        """
        real_source = self.source
        try:
            self.source = _MuteSource(real_source)
            start = self.cycle
            while not self.is_empty():
                if self.cycle - start > max_cycles:
                    raise RuntimeError(
                        f"switch failed to drain within {max_cycles} cycles: "
                        f"{self.buffer.queued_packets()} packets still queued"
                    )
                self.tick()
            return self.cycle - start
        finally:
            self.source = real_source

    def is_empty(self) -> bool:
        return (
            self.buffer.occupancy == 0
            and self.control.idle()
            and not self._chain
            and not self._wire_pipe
            and all(s.incoming is None and s.pending is None for s in self._inputs)
            and not any(sink.mid_packet for sink in self.sinks)
        )

    @property
    def link_utilization(self) -> float:
        """Delivered words per output-link cycle (the paper's link load)."""
        cycles = self.stats.measured_slots
        if cycles <= 0:
            return math.nan
        return (
            self.stats.delivered * self.config.packet_words
            / (cycles * self.config.n)
        )

    # -- one clock cycle ----------------------------------------------------------
    def tick(self) -> None:
        """Advance one clock: outputs, control shift, arbitration, waves,
        arrivals, register commit — mirroring the hardware's evaluate order."""
        t = self.cycle
        if self._credit_returns:
            still_pending = []
            for when, j in self._credit_returns:
                if when <= t:
                    self._out_credits[j] += 1
                else:
                    still_pending.append((when, j))
            self._credit_returns = still_pending
        if self._tel:
            iv = self.telemetry.sample_interval
            if iv and t % iv == 0:
                self._sample_telemetry(t)
        self._deliver_outputs(t)
        self.control.advance()
        self._arbitrate(t)
        self._execute_waves(t)
        self._accept_arrivals(t)
        self.out_row.commit()
        if self._san:
            self.sanitizer.end_cycle(t, len(self._sent))
        self.cycle = t + 1
        self.stats.horizon = self.cycle

    # -- phase 1: output links ----------------------------------------------------
    def _deliver_outputs(self, t: int) -> None:
        extra = 2 * self.config.link_pipeline_stages
        for k in range(self.config.depth):
            driving = self.out_row.driving(k)
            if driving is None:
                continue
            word, link = driving
            if extra:
                self._wire_pipe.append((t + extra, k, word, link))
            else:
                self._emit(t, word, link)
        if extra and self._wire_pipe:
            remaining = []
            for due, k, word, link in self._wire_pipe:
                if due <= t:
                    self._emit(t, word, link)
                else:
                    remaining.append((due, k, word, link))
            self._wire_pipe = remaining

    def _emit(self, t: int, word: Word, link: int) -> None:
        self.sinks[link].deliver(t, word.packet_uid, word.index, word.payload)
        if word.index == self.config.packet_words - 1:
            self._complete_delivery(t, link, word.packet_uid)

    def _complete_delivery(self, t: int, link: int, uid: int) -> None:
        packet = self._sent.pop(uid, None)
        if packet is None:
            raise AssertionError(f"output {link}: unknown packet {uid} delivered")
        sent_uid, head_cycle, payload = self.sinks[link].delivered[-1]
        if sent_uid != uid or payload != packet.payload:
            raise AssertionError(
                f"output {link}: packet {uid} payload corrupted in transit"
            )
        if packet.dst != link:
            raise AssertionError(
                f"packet {uid} for output {packet.dst} delivered on {link}"
            )
        packet.depart_first_cycle = head_cycle
        packet.depart_last_cycle = t
        if self._san:
            self.sanitizer.packet_delivered(t, uid)
        self.stats.record_departure(link, packet.arrival_cycle, head_cycle)
        if packet.arrival_cycle >= self.stats.warmup:
            self.ct_latency.add(packet.cut_through_latency)
            self.ct_latency_hist.add(packet.cut_through_latency)
            self.total_latency.add(packet.total_latency)
            if uid in self._unobstructed:
                self.stagger_extra.add(packet.cut_through_latency - 2)
        self._unobstructed.discard(uid)
        if self._tel:
            self.telemetry.events.emit(
                t, DEPART, uid, src=packet.src, dst=link, aux=head_cycle
            )
            self._m_departures[link].inc()
            if packet.arrival_cycle >= self.stats.warmup:
                self._m_latency.observe(packet.cut_through_latency)

    # -- phase 2: wave arbitration --------------------------------------------------
    def _arbitrate(self, t: int) -> None:
        reserved = self._chain.pop(t, None)
        if reserved is not None:
            # A chain continuation owns this cycle's initiation slot.
            if self._san:
                self.sanitizer.wave_initiated(t, reserved.packet_uid)
            self.control.initiate(reserved)
            return
        reads = self._read_candidates(t)
        writes = self._write_candidates(t)
        decision = self.arbiter.decide(t, reads, writes)
        self._apply_decision(t, decision)

    def _chain_slots_free(self, t: int) -> bool:
        """May a new chain start at ``t``? Its follow-up slots must be free."""
        b = self.config.depth
        return all(t + q * b not in self._chain for q in range(1, self.config.quanta))

    def _reserve_chain(self, t: int, first: ControlWord, addrs: list[int]) -> None:
        """Reserve waves 1..quanta-1 of a chain starting at ``t``."""
        b = self.config.depth
        for q in range(1, self.config.quanta):
            slot = t + q * b
            if slot in self._chain:
                raise AssertionError(f"chain slot {slot} double-booked")
            self._chain[slot] = ControlWord(
                first.op, addrs[q], in_link=first.in_link,
                out_link=first.out_link, packet_uid=first.packet_uid, quantum=q,
            )

    def _read_candidates(self, t: int) -> list[ReadCandidate]:
        if not self._chain_slots_free(t):
            return []  # a new chain could not reserve its follow-up slots
        candidates: list[ReadCandidate] = []
        chain_len = self.config.packet_words
        for j in range(self.config.n):
            if self.next_wave_ok[j] > t:
                continue
            if self._out_credits[j] == 0:
                continue  # downstream buffer full: hold the packet here
            head = self.buffer.head(j)
            if head is not None:
                if not self.config.cut_through and head.write_init_cycle + chain_len > t:
                    continue  # store-and-forward ablation: wait for full store
                candidates.append(ReadCandidate(j, queued_since=head.arrival_cycle))
                continue
            if not self.config.cut_through:
                continue
            if self.buffer.free_count < self.config.quanta:
                continue
            # Cut-through chance: an arriving packet headed to this idle,
            # queue-empty output can store and depart in a single wave.
            best: WriteRequest | None = None
            for state in self._inputs:
                w = state.pending
                if w is not None and w.dst == j and w.earliest <= t:
                    if best is None or w.arrival_cycle < best.arrival_cycle:
                        best = w
            if best is not None:
                candidates.append(
                    ReadCandidate(
                        j, queued_since=best.arrival_cycle, cut_through_write=best
                    )
                )
        return candidates

    def _write_candidates(self, t: int) -> list[WriteRequest]:
        if self.buffer.free_count < self.config.quanta:
            return []
        if not self._chain_slots_free(t):
            return []
        return [
            s.pending
            for s in self._inputs
            if s.pending is not None and s.pending.earliest <= t
        ]

    def _apply_decision(self, t: int, decision: Decision) -> None:
        if decision.kind == "idle":
            self.idle_cycles += 1
            if self._tel:
                self._m_idle.inc()
            return
        chain_len = self.config.packet_words
        if decision.kind == "read":
            j = decision.out_link
            assert j is not None
            rec = self.buffer.start_departure(j, t)
            first = ControlWord(WaveOp.READ, rec.addrs[0], out_link=j, packet_uid=rec.uid)
            if self._san:
                self.sanitizer.wave_initiated(t, rec.uid)
            self.control.initiate(first)
            self._reserve_chain(t, first, rec.addrs)
            self._departing[rec.uid] = rec
            self.next_wave_ok[j] = t + chain_len
            self._consume_downstream_credit(t, j)
            self.plain_read_waves += 1
            if self._tel:
                self._emit_wave(t, READ_WAVE, rec.uid, rec.src, j)
            return

        w = decision.write
        assert w is not None
        if w.deadline(self.config.depth) <= t:
            self.deadline_overrides += 1
            if self._tel:
                self._m_deadline.inc()
        rec = self.buffer.allocate(
            w.uid, w.in_link, w.dst, w.arrival_cycle, t, quanta=self.config.quanta
        )
        self._inputs[w.in_link].pending = None
        self.stats.record_accept(w.arrival_cycle)
        if decision.kind == "write_ct":
            j = decision.out_link
            assert j == w.dst
            dequeued = self.buffer.start_departure(j, t)
            if dequeued is not rec:
                raise AssertionError("cut-through wave must depart the packet it stores")
            first = ControlWord(
                WaveOp.WRITE_CT, rec.addrs[0], in_link=w.in_link, out_link=j,
                packet_uid=rec.uid,
            )
            if self._san:
                self.sanitizer.wave_initiated(t, rec.uid)
            self.control.initiate(first)
            self._reserve_chain(t, first, rec.addrs)
            self._departing[rec.uid] = rec
            self.next_wave_ok[j] = t + chain_len
            self._consume_downstream_credit(t, j)
            self.cut_through_waves += 1
            if self._tel:
                self._emit_wave(t, CUT_THROUGH, rec.uid, w.in_link, j)
        else:
            first = ControlWord(
                WaveOp.WRITE, rec.addrs[0], in_link=w.in_link, packet_uid=rec.uid
            )
            if self._san:
                self.sanitizer.wave_initiated(t, rec.uid)
            self.control.initiate(first)
            self._reserve_chain(t, first, rec.addrs)
            self.write_waves += 1
            if self._tel:
                self._emit_wave(t, STORE_WAVE, rec.uid, w.in_link, w.dst)

    def _consume_downstream_credit(self, t: int, j: int) -> None:
        """Spend one downstream credit for output ``j``; schedule its return
        one RTT after the packet's tail leaves the link."""
        if self._out_credits[j] < 0:
            return  # unlimited
        self._out_credits[j] -= 1
        tail_out = t + self.config.packet_words  # last word on the wire
        self._credit_returns.append((tail_out + self.config.downstream_rtt, j))

    # -- phase 3: execute every active wave stage -------------------------------------
    def _execute_waves(self, t: int) -> None:
        last = self.config.depth - 1
        for k, cw in self.control.active():
            bank = self.banks[k]
            bus = self.buses[k]
            if self._san:
                self.sanitizer.bank_access(t, k, cw.addr, cw.packet_uid, cw.quantum)
            if cw.op in (WaveOp.WRITE, WaveOp.WRITE_CT):
                word = self.in_latches[cw.in_link].consume(k)
                expected_index = cw.quantum * self.config.depth + k
                if word.packet_uid != cw.packet_uid or word.index != expected_index:
                    raise AssertionError(
                        f"stage {k}: wave for packet {cw.packet_uid} quantum "
                        f"{cw.quantum} consumed {word!r} — latch overrun undetected"
                    )
                bus.drive(t, word, driver=f"in_latch[{cw.in_link}][{k}]")
                bank.write(t, cw.addr, word)
                if cw.op is WaveOp.WRITE_CT:
                    self.out_row.load(k, bus.sample(t), cw.out_link)
            else:  # READ
                word = bank.read(t, cw.addr)
                bus.drive(t, word, driver=f"{bank.name}.read")
                self.out_row.load(k, bus.sample(t), cw.out_link)
            if (
                k == last
                and cw.quantum == self.config.quanta - 1
                and cw.op in (WaveOp.READ, WaveOp.WRITE_CT)
            ):
                rec = self._departing.pop(cw.packet_uid)
                self.buffer.release(rec)
                if self.config.credit_flow:
                    self._inputs[rec.src].credits += 1

    # -- phase 4: word arrivals ----------------------------------------------------------
    def _accept_arrivals(self, t: int) -> None:
        b = self.config.packet_words
        for i, state in enumerate(self._inputs):
            if state.incoming is None:
                if self.config.credit_flow and state.credits <= 0:
                    continue
                dst = self.source.maybe_start(t, i)
                if dst is None:
                    continue
                if not 0 <= dst < self.config.n:
                    raise ValueError(f"source produced bad destination {dst}")
                self._start_packet(t, i, state, dst)
            packet = state.incoming
            assert packet is not None
            k = state.next_word
            depth = self.config.depth
            if k > 0 and k % depth == 0 and state.pending is not None:
                # The packet's own next quantum is about to reuse latch 0
                # while its store chain never started (buffer stayed full
                # for the whole first-quantum window): the packet is lost.
                self._drop_packet(t, i, state.pending, DROP_QUANTUM_OVERRUN)
                state.discard_current = True
            self.in_latches[i].load(
                k % depth, Word(packet.uid, k, packet.payload[k])
            )
            if state.discard_current:
                self.in_latches[i].discard(k % depth)
            state.next_word = k + 1
            if state.next_word == b:
                state.incoming = None
                state.next_word = 0
                state.discard_current = False

    def _start_packet(self, t: int, i: int, state: _InputState, dst: int) -> None:
        # A new head is about to reuse input latch 0.  If the previous
        # packet's store wave never initiated (buffer stayed full for its
        # whole 2n-cycle window), that packet is lost *now* — this is the
        # true overrun instant, not the conservative deadline.
        if state.pending is not None:
            if self.config.credit_flow:
                raise DeadlineMissedError(
                    f"input {i}: packet {state.pending.uid} overrun at cycle "
                    f"{t} despite credit flow control"
                )
            self._drop_packet(t, i, state.pending, DROP_HEAD_OVERRUN)
        packet = Packet(src=i, dst=dst, payload=(), arrival_cycle=t)
        packet.payload = deterministic_payload(packet.uid, self.config.packet_words,
                                               self.config.width_bits)
        state.incoming = packet
        state.next_word = 0
        state.discard_current = False
        admitted = self._policy_trivial or self._policy_admits(t, dst)
        if admitted:
            state.pending = WriteRequest(
                in_link=i, dst=dst, uid=packet.uid, arrival_cycle=t
            )
            self._sent[packet.uid] = packet
        if self._san:
            self.sanitizer.packet_injected(t, packet.uid)
        self.stats.record_offer(t)
        if self._tel:
            self.telemetry.events.emit(t, ARRIVE, packet.uid, src=i, dst=dst)
            self._m_arrivals[i].inc()
        if not admitted:
            # Refused at the door: no pending write is created, so the
            # packet competes for nothing — but its words still occupy the
            # input link for the full W cycles (the wire does not know
            # about the policy) and are discarded at the latch row.
            if self._san:
                self.sanitizer.packet_dropped(t, packet.uid)
            self.stats.record_drop(t)
            self.policy_drops += 1
            if self._tel:
                self._emit_drop(t, i, packet.uid, dst, DROP_POLICY)
            state.discard_current = True
            return
        if (
            t >= self.stats.warmup
            and self.next_wave_ok[dst] <= t + 1
            and self.buffer.head(dst) is None
            and not any(
                s.pending is not None and s.pending.dst == dst
                for k, s in enumerate(self._inputs)
                if k != i
            )
        ):
            # No competitor for the same output: absent the one-initiation-
            # per-cycle restriction this packet would cut through with the
            # 2-cycle minimum latency.  Its measured extra delay is the pure
            # staggered-initiation penalty of §3.4.  (A same-cycle head for
            # the *same* output is output contention — a packet-time stall —
            # which the paper's idealized analysis does not separate out.)
            self._unobstructed.add(packet.uid)
        if self.config.credit_flow:
            state.credits -= 1

    def _policy_admits(self, t: int, dst: int) -> bool:
        """Consult the admission policy with the canonical buffer view.

        ``held[j]`` counts queued packets plus the at-most-one departure
        chain still in flight for ``j`` (``next_wave_ok[j] > t``), and
        ``free`` is derived from it rather than from ``free_count``: the
        :class:`BufferManager` releases a departing packet's addresses one
        phase earlier on the chain's final cycle than the batch kernel's
        due-queue does, and the policy must see the same numbers in every
        kernel (see :mod:`repro.policy.admission`).
        """
        q = self.config.quanta
        held = [len(queue) for queue in self.buffer.queues]
        for j, ok in enumerate(self.next_wave_ok):
            if ok > t:
                held[j] += 1
        free = self.config.addresses - q * sum(held)
        return self.policy.admit(dst, free, held, q)

    def _drop_packet(self, t: int, i: int, w: WriteRequest, cause: str) -> None:
        state = self._inputs[i]
        state.pending = None
        if self._san:
            self.sanitizer.packet_dropped(t, w.uid)
        self.stats.record_drop(w.arrival_cycle)
        self.overrun_drops += 1
        if self._tel:
            self._emit_drop(t, i, w.uid, w.dst, cause)
        self._sent.pop(w.uid, None)
        row = self.in_latches[i]
        arrived = min(t - w.arrival_cycle, self.config.packet_words)
        for k in range(arrived):
            row.discard(k)
        if state.incoming is not None and state.incoming.uid == w.uid:
            state.discard_current = True


class _MuteSource(PacketSource):
    """Wrapper that stops injecting (used by :meth:`PipelinedSwitch.drain`)."""

    def __init__(self, inner: PacketSource) -> None:
        super().__init__(inner.n_out, inner.packet_words, inner.width_bits)

    def maybe_start(self, cycle: int, link: int) -> int | None:
        return None
