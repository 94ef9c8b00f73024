"""Crash-consistent artifact writes.

Every file the simulator writes and later reads back (checkpoints,
per-cell sweep results, the merged ``results.json``, the partial-results
manifest) goes through :func:`write_atomic`, so a kill mid-write leaves
either the previous file or the new one, never a truncated mix.
"""

from __future__ import annotations

import os
from pathlib import Path


def write_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` via a sibling temp file and ``os.replace``."""
    p = Path(path)
    tmp = p.with_name(p.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, p)
