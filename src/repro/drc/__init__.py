"""Design-rule checks for the pipelined-memory reproduction: the runtime
invariant sanitizer.

The opt-in per-cycle sanitizer (:mod:`repro.drc.sanitizer`, enabled with
``--sanitize``) threads through the kernels and halts a run on the first
violated invariant, each with a stable ``DRC2xx`` code.

Determinism, registry coverage, RNG provenance and metric discipline are
not checked here: runtime contract tests
(``tests/scenario/test_contracts.py``) check them over every architecture
the registry builds.  See ``ARCHITECTURE.md`` §13 for those contracts and
the mapping of sanitizer invariants to paper sections.
"""

from repro.drc.sanitizer import (
    ADDRESS_MISMATCH,
    BANK_CONFLICT,
    CONSERVATION,
    DOUBLE_INITIATION,
    INVARIANTS,
    NULL_SANITIZER,
    NullSanitizer,
    Sanitizer,
    SanitizerError,
)

__all__ = [
    "ADDRESS_MISMATCH",
    "BANK_CONFLICT",
    "CONSERVATION",
    "DOUBLE_INITIATION",
    "INVARIANTS",
    "NULL_SANITIZER",
    "NullSanitizer",
    "Sanitizer",
    "SanitizerError",
]
