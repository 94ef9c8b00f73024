"""Checkpoint/restore subsystem: bit-identical snapshots of a running switch.

See :mod:`repro.checkpoint.snapshot` for the contract and ARCHITECTURE.md §15
for the document schema and per-kernel support matrix.
"""

from repro.checkpoint.snapshot import (
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    CheckpointError,
    CheckpointStaleError,
    CheckpointUnsupportedError,
    fingerprint,
    fingerprint_doc,
    load,
    restore,
    restore_switch,
    save,
    snapshot_switch,
)

__all__ = [
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "CheckpointError",
    "CheckpointStaleError",
    "CheckpointUnsupportedError",
    "fingerprint",
    "fingerprint_doc",
    "load",
    "restore",
    "restore_switch",
    "save",
    "snapshot_switch",
]
