"""Pluggable shared-buffer admission policies.

The paper (§3.3) deliberately separates buffer (address) management from
the pipelined memory; admission — *should this arriving packet be granted
buffer space at all?* — is the part of that management layer worth varying.
The seed kernels hard-code complete sharing ("admit iff enough free
addresses", the drop-tail discipline of the paper's Telegraphos context);
the datacenter buffer-sharing literature (Choudhury–Hahne dynamic
thresholds, the BShare baseline) studies alternatives on exactly this
shared-memory architecture.

Every kernel consults the policy at the same instant: the cycle the
packet's head word reaches the input latch (the ``arrive`` event).  A
refusal drops the packet immediately with the ``DROP_POLICY`` cause — it
never becomes a pending write, so it competes for nothing.  The packet
still occupies its input link for the full ``W`` cycles (the wire does not
know about the policy), which keeps source cadence and drain timing
bit-identical across the checked and batch kernels.

The policy sees one **canonical view** of buffer state, identical in every
kernel at the arrival instant:

* ``free`` — free buffer addresses, counting an address as held from its
  packet's write-wave admission until the cycle *after* its read chain
  completes (the batch kernel's natural accounting; the checked kernel's
  :class:`~repro.core.buffer_manager.BufferManager` releases one phase
  earlier on the final cycle, so it derives this view from its queues and
  per-output wave horizons rather than from ``free_count``).
* ``held[j]`` — packets currently holding addresses for output ``j``:
  the queued packets plus the at-most-one departure chain in flight.

Policies are pure functions of that view, so the decision stream is
reproducible.
"""

from __future__ import annotations

import difflib
from fractions import Fraction
from typing import Mapping, Sequence

from repro.core.errors import ConfigError

__all__ = [
    "AdmissionPolicy",
    "CompleteSharing",
    "StaticThreshold",
    "DynamicThreshold",
    "PortReservation",
    "POLICIES",
    "parse_policy",
]

# Denominator bound for the dynamic threshold's exact-rational alpha.
# The admission test runs in exact integer arithmetic, so its decisions
# are deterministic: no float rounding, identical in every kernel.
_ALPHA_DENOMINATOR_LIMIT = 1 << 16


class AdmissionPolicy:
    """Admission decision for one arriving packet (see module docstring).

    Implementations are stateless value objects; two instances with the
    same :attr:`spec` behave identically, which is what checkpoint
    restore relies on.  Subclasses that *do* carry evolving state must
    override :meth:`state`/:meth:`restore_state` so snapshots stay
    bit-identical on resume.
    """

    #: registry key; also the first token of the spec string
    kind = "abstract"
    #: trivial policies admit every packet — kernels skip the per-arrival
    #: consult entirely, so CompleteSharing has zero hot-path cost and the
    #: seed behaviour is preserved structurally, not just numerically.
    trivial = False
    #: declared constructor parameters: name -> type (int or float)
    _params: dict[str, type] = {}

    @property
    def spec(self) -> str:
        """Canonical round-trippable spec string (``kind:key=value,...``)."""
        raise NotImplementedError

    def admit(self, dst: int, free: int, held: Sequence[int], quanta: int) -> bool:
        """Admit a ``quanta``-quantum packet for output ``dst``?

        ``free`` is in buffer addresses, ``held[j]`` in packets (see the
        module docstring for the canonical view both are taken from).
        """
        raise NotImplementedError

    def validate(self, *, n: int, addresses: int, quanta: int) -> None:
        """Raise :class:`ConfigError` if this policy cannot govern the
        given switch geometry."""

    # -- checkpoint hooks ---------------------------------------------------
    def state(self) -> object | None:
        """Opaque JSON-able evolving state for checkpoints; ``None`` means
        stateless (all four built-ins)."""
        return None

    def restore_state(self, doc: object | None) -> None:
        if doc is not None:
            raise ConfigError(
                f"policy '{self.spec}' is stateless but the snapshot "
                f"carries policy state {doc!r}"
            )

    # -- value semantics ----------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and other.spec == self.spec

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.spec))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.spec!r})"


class CompleteSharing(AdmissionPolicy):
    """The seed discipline: every packet is admitted; the only losses are
    the structural drop-tail overruns (buffer full for the whole store
    window).  Bit-identical to pre-policy behaviour by construction."""

    kind = "complete"
    trivial = True

    @property
    def spec(self) -> str:
        return "complete"

    def admit(self, dst: int, free: int, held: Sequence[int], quanta: int) -> bool:
        return True


class StaticThreshold(AdmissionPolicy):
    """Per-output static cap: refuse when output ``dst`` already holds
    ``cap`` packets.  The classic partitioned-threshold baseline."""

    kind = "static"
    _params = {"cap": int}

    def __init__(self, cap: int) -> None:
        cap = int(cap)
        if cap < 1:
            raise ConfigError(f"static threshold cap must be >= 1, got {cap}")
        self.cap = cap

    @property
    def spec(self) -> str:
        return f"static:cap={self.cap}"

    def admit(self, dst: int, free: int, held: Sequence[int], quanta: int) -> bool:
        return held[dst] < self.cap


class DynamicThreshold(AdmissionPolicy):
    """Choudhury–Hahne dynamic threshold (the BShare baseline): admit while
    the output's occupancy stays below ``alpha`` times the *free* space.

    The test is evaluated in exact integer arithmetic —
    ``quanta * (held[dst] + 1) * den <= num * free`` with
    ``num/den ≈ alpha`` (denominator bounded) — so every kernel takes the
    same, deterministic decision with no float rounding in the test.
    """

    kind = "dynamic"
    _params = {"alpha": float}

    def __init__(self, alpha: float) -> None:
        alpha = float(alpha)
        if not alpha > 0.0:
            raise ConfigError(f"dynamic threshold alpha must be > 0, got {alpha}")
        self.alpha = alpha
        frac = Fraction(alpha).limit_denominator(_ALPHA_DENOMINATOR_LIMIT)
        self.alpha_num = frac.numerator
        self.alpha_den = frac.denominator

    @property
    def spec(self) -> str:
        return f"dynamic:alpha={self.alpha!r}"

    def admit(self, dst: int, free: int, held: Sequence[int], quanta: int) -> bool:
        return (
            quanta * (held[dst] + 1) * self.alpha_den
            <= self.alpha_num * free
        )


class PortReservation(AdmissionPolicy):
    """Guaranteed per-port minimum: refuse an admission that would dip
    into the addresses still owed to outputs below their ``reserve``."""

    kind = "reservation"
    _params = {"reserve": int}

    def __init__(self, reserve: int) -> None:
        reserve = int(reserve)
        if reserve < 1:
            raise ConfigError(
                f"port reservation must be >= 1 packet, got {reserve}"
            )
        self.reserve = reserve

    @property
    def spec(self) -> str:
        return f"reservation:reserve={self.reserve}"

    def validate(self, *, n: int, addresses: int, quanta: int) -> None:
        need = n * self.reserve * quanta
        if need > addresses:
            raise ConfigError(
                f"reservation:reserve={self.reserve} needs "
                f"{n} x {self.reserve} x {quanta} = {need} addresses but the "
                f"buffer has only {addresses}"
            )

    def admit(self, dst: int, free: int, held: Sequence[int], quanta: int) -> bool:
        shortfall = 0
        reserve = self.reserve
        for j, h in enumerate(held):
            if j != dst and h < reserve:
                shortfall += reserve - h
        return free >= quanta * (1 + shortfall)


#: Registry of every admission policy, keyed by spec kind.  The scenario
#: layer and the CLI resolve ``--policy`` strings through this table, so a
#: policy listed here is reachable from every entry point
#: (``tests/scenario/test_contracts.py`` checks that every public
#: implementation is listed and prepares a cell).
POLICIES: dict[str, type[AdmissionPolicy]] = {
    "complete": CompleteSharing,
    "static": StaticThreshold,
    "dynamic": DynamicThreshold,
    "reservation": PortReservation,
}


def _suggest(word: str, options: Sequence[str]) -> str:
    close = difflib.get_close_matches(word, options, n=1)
    return f" (did you mean {close[0]!r}?)" if close else ""


def _convert(kind: str, name: str, value: object, typ: type) -> object:
    try:
        return typ(value)  # type: ignore[call-arg]
    except (TypeError, ValueError):
        raise ConfigError(
            f"policy '{kind}' parameter '{name}' expects "
            f"{typ.__name__}, got {value!r}"
        ) from None


def _build(kind: str, raw: Mapping[str, object]) -> AdmissionPolicy:
    cls = POLICIES.get(kind)
    if cls is None:
        raise ConfigError(
            f"unknown admission policy '{kind}'"
            f"{_suggest(kind, list(POLICIES))}; "
            f"known policies: {', '.join(sorted(POLICIES))}"
        )
    params = cls._params
    kwargs: dict[str, object] = {}
    for name, value in raw.items():
        typ = params.get(name)
        if typ is None:
            raise ConfigError(
                f"policy '{kind}' got unknown parameter '{name}'"
                f"{_suggest(name, list(params))}; "
                f"expected: {', '.join(sorted(params)) or '(none)'}"
            )
        kwargs[name] = _convert(kind, name, value, typ)
    missing = sorted(set(params) - set(kwargs))
    if missing:
        raise ConfigError(
            f"policy '{kind}' is missing parameter(s): {', '.join(missing)} "
            f"(e.g. '--policy {kind}:" + ",".join(f"{p}=..." for p in missing)
            + "')"
        )
    return cls(**kwargs)  # type: ignore[arg-type]


def parse_policy(
    spec: "str | Mapping[str, object] | AdmissionPolicy | None",
) -> AdmissionPolicy:
    """Resolve a policy spec to an :class:`AdmissionPolicy` instance.

    Accepts ``None`` (complete sharing), an existing policy instance, a
    spec string (``"complete"``, ``"static:cap=8"``,
    ``"dynamic:alpha=1.0"``, ``"reservation:reserve=4"``) or a mapping
    (``{"kind": "dynamic", "alpha": 1.0}``).  Raises :class:`ConfigError`
    with a did-you-mean hint on anything else.
    """
    if spec is None:
        return CompleteSharing()
    if isinstance(spec, AdmissionPolicy):
        return spec
    if isinstance(spec, Mapping):
        raw = dict(spec)
        kind = raw.pop("kind", None)
        if not isinstance(kind, str):
            raise ConfigError(
                f"policy mapping needs a string 'kind' entry, got {spec!r}"
            )
        return _build(kind, raw)
    if not isinstance(spec, str):
        raise ConfigError(
            f"policy spec must be a string, mapping or AdmissionPolicy, "
            f"got {type(spec).__name__}: {spec!r}"
        )
    text = spec.strip()
    if not text:
        raise ConfigError("policy spec must not be empty")
    kind, _, arg_text = text.partition(":")
    kind = kind.strip()
    raw2: dict[str, object] = {}
    if arg_text.strip():
        for item in arg_text.split(","):
            name, eq, value = item.partition("=")
            name = name.strip()
            if not eq or not name or not value.strip():
                raise ConfigError(
                    f"malformed policy parameter {item!r} in spec {text!r}; "
                    f"expected 'name=value'"
                )
            raw2[name] = value.strip()
    return _build(kind, raw2)
