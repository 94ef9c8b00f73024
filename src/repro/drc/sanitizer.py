"""The design-rule checker: per-cycle invariant sanitizer.

The paper's correctness argument rests on structural invariants that the
hardware satisfies *by construction* and the simulator satisfies *by
discipline*:

* **DRC201** — a single-ported bank never sees two accesses in one cycle
  (paper §3.2: the one-wave-per-cycle budget makes bank conflicts
  impossible);
* **DRC202** — no two waves initiate in the same cycle (§3.3/§3.4
  staggered initiation: only stage ``M0`` is arbitrated, one control word
  per clock);
* **DRC203** — all ``B`` words of a packet quantum live at the *same
  address in every bank* (§3.1/figure 4: a packet is one address across
  the bank row, which is what lets one control word drive the whole wave);
* **DRC204** — packet conservation: every injected packet is eventually
  delivered, still buffered/in flight, or accounted as dropped.

The checked :class:`~repro.core.switch.PipelinedSwitch` enforces most of
these through its component models (the bank port guard, the control
pipeline's one-initiation rule); the sanitizer is an *independent*
observer layered on top, so a bug in the component models themselves is
still caught.  (The batch kernel has no component models and refuses an
enabled sanitizer.)  ``tests/core/test_failure_injection.py`` seeds each fault
deliberately and asserts the matching :class:`SanitizerError`.

Null-object pattern: kernels hold :data:`NULL_SANITIZER` by default and
gate every hook on one cached boolean (``self._san``), so a disabled
sanitizer costs nothing on the hot path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.telemetry import Telemetry

#: sanitizer invariant codes (runtime half of the DRC catalog)
BANK_CONFLICT = "DRC201"
DOUBLE_INITIATION = "DRC202"
ADDRESS_MISMATCH = "DRC203"
CONSERVATION = "DRC204"

#: code -> one-line invariant statement (shared with docs and tests)
INVARIANTS: dict[str, str] = {
    BANK_CONFLICT: "single-ported bank accessed at most once per cycle (paper §3.2)",
    DOUBLE_INITIATION: "at most one wave initiation per cycle (paper §3.3)",
    ADDRESS_MISMATCH: "all words of a quantum share one address across banks (paper §3.1)",
    CONSERVATION: "injected = delivered + buffered + dropped",
}


class SanitizerError(RuntimeError):
    """A paper invariant was violated at runtime.

    Structured: ``code`` is the DRC catalog code, ``cycle`` the clock cycle
    of the violation, ``invariant`` the one-line statement being enforced,
    and ``context`` whatever identifies the offender (bank, packet uid,
    addresses, counts).
    """

    def __init__(self, code: str, cycle: int, message: str, **context: Any) -> None:
        self.code = code
        self.cycle = cycle
        self.invariant = INVARIANTS[code]
        self.context = context
        self._message = message
        detail = ", ".join(f"{k}={v}" for k, v in context.items())
        super().__init__(
            f"{code} at cycle {cycle}: {message}"
            f"{f' ({detail})' if detail else ''} — invariant: {self.invariant}"
        )

    def __reduce__(self) -> tuple[Any, ...]:
        # keyword-only context does not fit the default (type, args) pickle
        # protocol; sweeps ferry these across the process pool
        return (_rebuild_error, (self.code, self.cycle, self._message,
                                 self.context))


def _rebuild_error(code: str, cycle: int, message: str,
                   context: dict[str, Any]) -> "SanitizerError":
    return SanitizerError(code, cycle, message, **context)


class Sanitizer:
    """Collects per-cycle evidence from a kernel and checks the invariants.

    Kernels push events through the hook methods (``wave_initiated``,
    ``bank_access``, ``packet_injected`` / ``packet_delivered`` /
    ``packet_dropped``) and close each cycle with :meth:`end_cycle`.  A
    violation raises :class:`SanitizerError` immediately (``halt=True``,
    the default) or is recorded in :attr:`violations` and counted, so a
    sweep can report every violation instead of dying on the first.

    Pass the run's :class:`~repro.telemetry.Telemetry` bundle to export
    ``repro_sanitizer_cycles_total`` and per-code
    ``repro_sanitizer_violations_total`` counters alongside the kernel's
    own metrics.
    """

    enabled = True

    def __init__(self, telemetry: "Telemetry | None" = None, halt: bool = True) -> None:
        self.halt = halt
        self.violations: list[SanitizerError] = []
        self.cycles_checked = 0
        self.injected = 0
        self.delivered = 0
        self.dropped = 0
        self._metrics = (
            telemetry.metrics if telemetry is not None and telemetry.enabled else None
        )
        self._m_cycles = (
            self._metrics.counter("repro_sanitizer_cycles_total")
            if self._metrics is not None else None
        )
        self._m_violations: dict[str, Any] = {}
        # per-cycle bank occupancy: cycle stamp + bank -> packet uid
        self._bank_cycle = -1
        self._bank_uses: dict[int, int] = {}
        # last wave initiation seen (cycle, packet uid)
        self._init_cycle = -1
        self._init_uid = -1
        # packet uid -> quantum -> buffer address of its first bank access
        self._addr_of: dict[int, dict[int, int]] = {}

    # -- wave-level hooks ---------------------------------------------------
    def wave_initiated(self, cycle: int, uid: int) -> None:
        """A wave (new or chain continuation) starts at stage 0 this cycle."""
        if cycle == self._init_cycle:
            self._violation(
                DOUBLE_INITIATION, cycle,
                "two waves initiated in one cycle",
                first_packet=self._init_uid, second_packet=uid,
            )
            return
        self._init_cycle = cycle
        self._init_uid = uid

    def bank_access(self, cycle: int, bank: int, addr: int, uid: int,
                    quantum: int) -> None:
        """Bank ``bank`` executes one word of packet ``uid`` at ``addr``."""
        if cycle != self._bank_cycle:
            self._bank_cycle = cycle
            self._bank_uses.clear()
        other = self._bank_uses.get(bank)
        if other is not None:
            self._violation(
                BANK_CONFLICT, cycle,
                f"bank M{bank} accessed twice in one cycle",
                bank=bank, first_packet=other, second_packet=uid,
            )
            return
        self._bank_uses[bank] = uid
        quanta = self._addr_of.setdefault(uid, {})
        expected = quanta.get(quantum)
        if expected is None:
            quanta[quantum] = addr
        elif expected != addr:
            self._violation(
                ADDRESS_MISMATCH, cycle,
                f"packet {uid} quantum {quantum} hit bank M{bank} at address "
                f"{addr} but its wave was admitted at address {expected}",
                packet=uid, quantum=quantum, bank=bank,
                expected_addr=expected, actual_addr=addr,
            )

    # -- packet-lifecycle hooks ---------------------------------------------
    def packet_injected(self, cycle: int, uid: int) -> None:
        self.injected += 1

    def packet_delivered(self, cycle: int, uid: int) -> None:
        self.delivered += 1
        self._addr_of.pop(uid, None)

    def packet_dropped(self, cycle: int, uid: int) -> None:
        self.dropped += 1
        self._addr_of.pop(uid, None)

    # -- cycle close --------------------------------------------------------
    def end_cycle(self, cycle: int, in_flight: int) -> None:
        """Close cycle ``cycle``: check conservation against the kernel's
        own count of live (buffered or in-flight) packets."""
        self.cycles_checked += 1
        if self._m_cycles is not None:
            self._m_cycles.inc()
        expected = self.delivered + self.dropped + in_flight
        if self.injected != expected:
            self._violation(
                CONSERVATION, cycle,
                f"{self.injected} packets injected but "
                f"{self.delivered} delivered + {self.dropped} dropped + "
                f"{in_flight} in flight = {expected}",
                injected=self.injected, delivered=self.delivered,
                dropped=self.dropped, in_flight=in_flight,
            )

    # -- reporting ----------------------------------------------------------
    def summary(self) -> dict[str, int]:
        """JSON-ready account of what was checked and what fired."""
        return {
            "cycles_checked": self.cycles_checked,
            "injected": self.injected,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "violations": len(self.violations),
        }

    def _violation(self, code: str, cycle: int, message: str, **context: Any) -> None:
        err = SanitizerError(code, cycle, message, **context)
        self.violations.append(err)
        if self._metrics is not None:
            counter = self._m_violations.get(code)
            if counter is None:
                counter = self._metrics.counter(
                    "repro_sanitizer_violations_total", code=code
                )
                self._m_violations[code] = counter
            counter.inc()
        if self.halt:
            raise err


class NullSanitizer:
    """Disabled stand-in: every hook is a no-op (see module docstring)."""

    enabled = False
    halt = False
    violations: list[SanitizerError] = []
    cycles_checked = 0
    injected = 0
    delivered = 0
    dropped = 0

    def wave_initiated(self, cycle: int, uid: int) -> None:
        pass

    def bank_access(self, cycle: int, bank: int, addr: int, uid: int,
                    quantum: int) -> None:
        pass

    def packet_injected(self, cycle: int, uid: int) -> None:
        pass

    def packet_delivered(self, cycle: int, uid: int) -> None:
        pass

    def packet_dropped(self, cycle: int, uid: int) -> None:
        pass

    def end_cycle(self, cycle: int, in_flight: int) -> None:
        pass

    def summary(self) -> dict[str, int]:
        return {"cycles_checked": 0, "injected": 0, "delivered": 0,
                "dropped": 0, "violations": 0}


NULL_SANITIZER = NullSanitizer()
