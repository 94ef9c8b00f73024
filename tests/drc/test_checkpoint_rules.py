"""Checkpoint completeness against the *real* repository.

The acceptance bar for DRC151 is mechanical: delete any single codec
field from ``repro.checkpoint`` and the rule must fire for exactly that
attribute.  These tests copy ``src/`` to a temp tree, surgically remove
representative codec reads (one per kernel tier, covering list state,
pipeline state, scalars, and numpy-array state), and lint the mutated
tree.
"""

import shutil
from pathlib import Path

import pytest

from repro.drc.linter import run_lint

REPO = Path(__file__).resolve().parents[2]
SNAPSHOT = "src/repro/checkpoint/snapshot.py"

#: (codec read line fragments to delete, attribute expected to fire);
#: multi-line reads list every line of the expression
FIELD_DELETIONS = [
    (('"chain": [[c, _cw_doc(w)] for c, w in sorted(sw._chain.items())]',),
     "_chain"),
    (('"wire_pipe": [[due, k, _word_doc(w), link]',
      'for due, k, w, link in sw._wire_pipe],'), "_wire_pipe"),
    (('"next_wave_ok": list(sw.next_wave_ok)',), "next_wave_ok"),
    (('"trace_ended_at": sw.trace_ended_at',), "trace_ended_at"),
    (('"busy_until": sw._busy_until',), "_busy_until"),
    (('"free_due": list(sw._free_due)',), "_free_due"),
]


@pytest.fixture(scope="module")
def src_copy(tmp_path_factory):
    root = tmp_path_factory.mktemp("ckpt")
    shutil.copytree(REPO / "src", root / "src")
    return root


def _codes_for(result, code):
    return [v for v in result.all_findings() if v.code == code]


def test_repo_checkpoint_is_complete(src_copy):
    result = run_lint(["src"], root=src_copy)
    assert _codes_for(result, "DRC151") == []
    assert _codes_for(result, "DRC152") == []
    assert _codes_for(result, "DRC153") == []


@pytest.mark.parametrize("needles,attr", FIELD_DELETIONS,
                         ids=[a for _, a in FIELD_DELETIONS])
def test_deleting_codec_field_fires_drc151(src_copy, needles, attr):
    snap = src_copy / SNAPSHOT
    original = snap.read_text()
    lines = original.splitlines(keepends=True)
    kept = [ln for ln in lines if not any(n in ln for n in needles)]
    assert len(kept) < len(lines), f"codec line for {attr!r} not found"
    snap.write_text("".join(kept))
    try:
        result = run_lint(["src"], root=src_copy)
        hits = _codes_for(result, "DRC151")
        assert any(f"{attr!r}" in v.message for v in hits), (
            f"deleting the {attr} codec field must fire DRC151; "
            f"got {[v.message[:60] for v in hits]}")
    finally:
        snap.write_text(original)


def test_subclassing_supported_kernel_fires_drc153(src_copy):
    extra = src_copy / "src/repro/core/custom.py"
    extra.write_text(
        "from repro.core.fastpath import FastPipelinedSwitch\n"
        "\n\n"
        "class TunedSwitch(FastPipelinedSwitch):\n"
        "    pass\n"
    )
    try:
        result = run_lint(["src"], root=src_copy)
        hits = _codes_for(result, "DRC153")
        assert any("TunedSwitch" in v.message for v in hits)
        assert all(v.path == "src/repro/core/custom.py" for v in hits)
    finally:
        extra.unlink()


def test_stale_codec_read_fires_drc152(src_copy):
    snap = src_copy / SNAPSHOT
    original = snap.read_text()
    mutated = original.replace(
        '"trace_ended_at": sw.trace_ended_at',
        '"trace_ended_at": sw.trace_ended_at_legacy', 1)
    assert mutated != original
    snap.write_text(mutated)
    try:
        result = run_lint(["src"], root=src_copy)
        hits = _codes_for(result, "DRC152")
        assert any("trace_ended_at_legacy" in v.message for v in hits)
    finally:
        snap.write_text(original)


def test_checkpoint_exempt_marker_silences_drc151(tmp_path):
    files = {
        "src/repro/core/k.py": (
            "class MiniKernel:\n"
            "    def __init__(self):\n"
            "        self.cycle = 0\n"
            "        self.scratch = []\n"
            "    def run(self, n):\n"
            "        self.cycle = self.cycle + n\n"
            "        self.scratch.append(n)  # drc: checkpoint-exempt\n"
        ),
        "src/repro/checkpoint/snap.py": (
            "from repro.core.k import MiniKernel\n"
            "def _kernel_of(switch):\n"
            "    if type(switch) is MiniKernel:\n"
            "        return 'mini'\n"
            "    raise TypeError\n"
            "def _snap_mini(sw):\n"
            "    return {'cycle': sw.cycle}\n"
            "def snapshot_switch(switch):\n"
            "    kernel = _kernel_of(switch)\n"
            "    if kernel == 'mini':\n"
            "        body = _snap_mini(switch)\n"
            "    else:\n"
            "        body = None\n"
            "    return {'kernel': kernel, 'body': body}\n"
        ),
    }
    for rel, source in files.items():
        p = tmp_path / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(source)
    result = run_lint(["src"], root=tmp_path)
    assert [v.code for v in result.all_findings()] == []
    # without the marker the same tree fires
    k = tmp_path / "src/repro/core/k.py"
    k.write_text(k.read_text().replace("  # drc: checkpoint-exempt", ""))
    result = run_lint(["src"], root=tmp_path)
    assert [v.code for v in result.all_findings()] == ["DRC151"]
