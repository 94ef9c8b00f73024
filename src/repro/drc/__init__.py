"""Design-rule checker for the pipelined-memory reproduction.

Two halves, one catalog of stable codes:

* **static** (``DRC1xx``) — per-file AST lint rules over the repository
  source, plus one cross-file metric-label check (:mod:`repro.drc.rules`,
  driven by :func:`repro.drc.linter.run_lint` and the ``repro lint``
  CLI);
* **runtime** (``DRC2xx``) — the opt-in per-cycle invariant sanitizer
  threaded through the kernels (:mod:`repro.drc.sanitizer`, enabled with
  ``--sanitize``).

The package namespace exports only the sanitizer, which every kernel
imports; the lint engine loads on demand from :mod:`repro.drc.linter`,
so simulating never pays for parsing the rule families.

Registry coverage and RNG provenance are not lint rules: runtime
contract tests (``tests/scenario/test_contracts.py``) check them over
every architecture the registry builds.  See ``ARCHITECTURE.md`` §13 for
the full rule catalog, those contracts, and the mapping of sanitizer
invariants to paper sections.
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
