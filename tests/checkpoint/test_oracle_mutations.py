"""The round-trip oracle catches a codec that loses state.

Each case copies ``src/`` to a temp tree, breaks the checkpoint codec in
one way, and runs the oracle of ``test_snapshot.py`` (the kernel-subclass
refusal, then the round-trip matrix) in a subprocess that imports the
mutated tree.  Every mutation must fail it; the unmutated copy must pass.
"""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
SNAPSHOT = "src/repro/checkpoint/snapshot.py"

#: (codec line fragments to delete, attribute the oracle must name): each
#: deletion removes both the snapshot key and the restore assignment, so
#: the restored switch keeps the field's constructor default.
FIELD_DELETIONS = [
    (('"chain": [[c, _cw_doc(w)] for c, w in sorted(sw._chain.items())]',
      'sw._chain = {c: _cw_from(w) for c, w in body["chain"]}'), "_chain"),
    (('"wire_pipe": [[due, k, _word_doc(w), link]',
      'for due, k, w, link in sw._wire_pipe],',
      'sw._wire_pipe = [(due, k, _word_from(wdoc), link)',
      'for due, k, wdoc, link in body["wire_pipe"]]'), "_wire_pipe"),
    (('"next_wave_ok": list(sw.next_wave_ok)',
      'sw.next_wave_ok = list(body["next_wave_ok"])'), "next_wave_ok"),
    (('"trace_ended_at": sw.trace_ended_at',
      'sw.trace_ended_at = body["trace_ended_at"]'), "trace_ended_at"),
    (('"busy_until": sw._busy_until',
      'sw._busy_until = body["busy_until"]'), "_busy_until"),
]

_ORACLE = """
import sys
import repro
assert repro.__file__.startswith(sys.argv[1]), repro.__file__
from tests.checkpoint import test_snapshot as t
for kernel in t.KERNELS:
    t.test_kernel_subclass_is_refused(kernel)
t.test_round_trip_oracle()
"""


@pytest.fixture(scope="module")
def src_copy(tmp_path_factory):
    root = tmp_path_factory.mktemp("ckpt")
    shutil.copytree(REPO / "src", root / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return root


def _run_oracle(root):
    env = {**os.environ, "PYTHONPATH": str(root / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, "-c", _ORACLE, str(root / "src")],
                          cwd=REPO, env=env, capture_output=True, text=True,
                          timeout=300)


def _assert_oracle_fails(root, needle):
    proc = _run_oracle(root)
    assert proc.returncode != 0, "the oracle passed a broken codec"
    assert needle in proc.stderr, proc.stderr[-2000:]


@pytest.fixture
def snapshot_py(src_copy):
    path = src_copy / SNAPSHOT
    original = path.read_text()
    yield path, original
    path.write_text(original)


def test_oracle_passes_unmutated_copy(src_copy):
    proc = _run_oracle(src_copy)
    assert proc.returncode == 0, proc.stderr[-2000:]


@pytest.mark.parametrize("needles,attr", FIELD_DELETIONS,
                         ids=[a for _, a in FIELD_DELETIONS])
def test_deleting_codec_field_fails_oracle(src_copy, snapshot_py, needles,
                                           attr):
    path, original = snapshot_py
    lines = original.splitlines(keepends=True)
    kept = [ln for ln in lines if not any(n in ln for n in needles)]
    assert len(lines) - len(kept) >= len(needles), needles
    path.write_text("".join(kept))
    _assert_oracle_fails(src_copy, f".{attr}")


def test_stale_codec_read_fails_oracle(src_copy, snapshot_py):
    path, original = snapshot_py
    mutated = original.replace('"trace_ended_at": sw.trace_ended_at',
                               '"trace_ended_at": sw.trace_ended_at_legacy', 1)
    assert mutated != original
    path.write_text(mutated)
    _assert_oracle_fails(src_copy, "trace_ended_at_legacy")


def test_accepting_kernel_subclasses_fails_oracle(src_copy, snapshot_py):
    """Dispatch by isinstance would snapshot a subclass as its base,
    dropping whatever state the subclass adds."""
    path, original = snapshot_py
    mutated, hits = re.subn(r"type\(switch\) is (\w+)", r"isinstance(switch, \1)",
                            original)
    assert hits == 2
    path.write_text(mutated)
    _assert_oracle_fails(src_copy, "DID NOT RAISE")


def test_snapshot_side_effect_fails_oracle(src_copy, snapshot_py):
    """A snapshot that disturbs the switch it saves: the document carries
    the disturbance, so only the uninterrupted reference run shows it."""
    path, original = snapshot_py
    anchor = "    kernel = _kernel_of(switch)\n"
    assert original.count(anchor) == 1
    path.write_text(original.replace(
        anchor, anchor + "    switch.stats.delivered += 1\n"))
    _assert_oracle_fails(src_copy, "fingerprint")


def test_unset_wave_flush_marker_fails_oracle(src_copy, snapshot_py):
    """Restore leaves the batch kernel's wave-flush marker at its default:
    the next flush would count every wave since cycle 0 again.  The marker
    has no document key, so only the state comparison catches this."""
    path, original = snapshot_py
    line = ("    sw._waves_flushed = (sw.write_waves, sw.cut_through_waves, "
            "sw.plain_read_waves)\n")
    assert original.count(line) == 1
    path.write_text(original.replace(line, ""))
    _assert_oracle_fails(src_copy, "._waves_flushed")


def test_tape_cursor_off_by_one_fails_oracle(src_copy, snapshot_py):
    """Restore drops one handed-out poll too many: the re-drawn tape is one
    poll short."""
    path, original = snapshot_py
    anchor = '    skip = doc["cursor"]\n'
    assert original.count(anchor) == 1
    path.write_text(original.replace(anchor, '    skip = doc["cursor"] + 1\n'))
    _assert_oracle_fails(src_copy, "_tape_cycle")


def test_live_state_as_redraw_anchor_fails_oracle(src_copy, snapshot_py):
    """The recipe anchored at the live generators re-draws polls that lie
    past the tape; the state check refuses the document."""
    path, original = snapshot_py
    anchor = 'doc["anchor"] = [_pcg_doc(blocks[0][0]), _pcg_doc(blocks[0][1])]'
    assert original.count(anchor) == 1
    path.write_text(original.replace(anchor, (
        'doc["anchor"] = [_rng_doc(src._u_rng[link]), '
        '_rng_doc(src._d_rng[link])]')))
    _assert_oracle_fails(src_copy, "recorded generator states")
