"""The runtime contracts catch what the whole-program lint rules caught.

Each case copies ``src/`` to a temp tree, edits it in one way, and runs
one contract of ``test_contracts.py`` in a subprocess that imports the
edited tree.  Every mutation must fail its contract, every clean edit
(an idiom the contract must not flag) must pass it, and the unmutated
copy must pass all of them.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]

CONTRACTS = (
    "test_every_slotted_class_is_built_by_a_cell",
    "test_every_word_kernel_is_built_by_a_word_cell",
    "test_every_policy_is_registered_and_prepares",
    "test_drop_cause_constants_match_taxonomy",
    "test_each_generator_has_one_owner",
    "test_fresh_interpreters_agree",
    "test_runner_jobs_agree",
)

_RUN = """
import sys
import repro
assert repro.__file__.startswith(sys.argv[1]), repro.__file__
from tests.scenario import test_contracts as t
for name in sys.argv[2:]:
    getattr(t, name)()
"""

#: id -> (file, edits, contract, needle).  Each edit is (anchor,
#: replacement), where the anchor occurs exactly once, or (None, text) to
#: append text to the file.  The contract's failure output must contain
#: the needle.
MUTATIONS = {
    "unregistered-switch": (
        "src/repro/switches/output_queued.py",
        [(None, "\n\nclass DeepOutputQueued(OutputQueued):\n"
                "    \"\"\"Output queueing that no registry architecture "
                "builds.\"\"\"\n")],
        "test_every_slotted_class_is_built_by_a_cell", "DeepOutputQueued"),
    "missing-occupancy": (
        "src/repro/switches/crosspoint.py",
        [("    def occupancy(self) -> int:\n",
          "    def cells_held(self) -> int:\n")],
        "test_every_slotted_class_is_built_by_a_cell", "CrosspointQueued"),
    "unregistered-policy": (
        "src/repro/policy/admission.py",
        [(None, "\n\nclass TailDrop(CompleteSharing):\n"
                "    \"\"\"Complete sharing under another name, left out of "
                "POLICIES.\"\"\"\n")],
        "test_every_policy_is_registered_and_prepares", "TailDrop"),
    "untaxed-drop-cause": (
        "src/repro/telemetry/events.py",
        [('DROP_POLICY = "policy"\n',
          'DROP_POLICY = "policy"\nDROP_EXPIRED = "expired"\n')],
        "test_drop_cause_constants_match_taxonomy", "expired"),
    "source-on-switch-generator": (
        "src/repro/scenario/registry.py",
        [('source = _slotted_source(scenario.traffic, params["n"], seed + 1)',
          'source = _slotted_source(scenario.traffic, params["n"],\n'
          '                                 getattr(switch, "rng", seed + 1))')],
        "test_each_generator_has_one_owner", "several owners"),
    "entropy-seeded-source": (
        "src/repro/traffic/base.py",
        [("        self.rng = make_rng(seed)\n",
          "        self.rng = np.random.default_rng()\n")],
        "test_fresh_interpreters_agree", "differ between interpreters"),
    "worker-reseeds-from-parent-generator": (
        "src/repro/scenario/runner.py",
        [("    scenario_dict, seed, out_dir, sanitize = job\n",
          "    scenario_dict, seed, out_dir, sanitize = job\n"
          "    seed = int(_RESEED.integers(1 << 30))\n"),
         (None, "\nimport numpy as np\n\n"
                "_RESEED = np.random.default_rng(2026)  # built in the parent\n")],
        "test_runner_jobs_agree", "differ between jobs=1 and jobs=2"),
    "builder-names-missing-kernel": (
        "src/repro/scenario/registry.py",
        [("return sw.FifoInputQueued(", "return sw.GhostKernel(")],
        "test_every_slotted_class_is_built_by_a_cell", "GhostKernel"),
    "batch-kernel-unreachable": (
        "src/repro/scenario/registry.py",
        [('kernel = "checked" if batch_refusal(cfg, source, sanitizer) else "batch"',
          'kernel = "checked"'),
         ('make_pipelined_switch(_pipelined_config(p), source, kernel="batch",',
          'make_pipelined_switch(_pipelined_config(p), source, kernel="checked",')],
        "test_every_word_kernel_is_built_by_a_word_cell", "BatchPipelinedSwitch"),
    "policies-names-missing-class": (
        "src/repro/policy/admission.py",
        [('    "reservation": PortReservation,\n}\n',
          '    "reservation": PortReservation,\n    "ghost": GhostPolicy,\n}\n')],
        "test_every_policy_is_registered_and_prepares", "GhostPolicy"),
    "fabric-elements-share-a-generator": (
        "src/repro/scenario/registry.py",
        [('    return OmegaFabric(p["k"], p["stages"],\n'
          '                       lambda: edef.build(eparams, seed))\n',
          '    from repro.sim.rng import make_rng\n'
          '    stream = make_rng(seed)\n'
          '    return OmegaFabric(p["k"], p["stages"],\n'
          '                       lambda: edef.build(eparams, stream))\n')],
        "test_each_generator_has_one_owner", "several owners"),
    "fabric-source-on-element-generator": (
        "src/repro/scenario/registry.py",
        [("source = _slotted_source(scenario.traffic, switch.n, seed + 1)",
          "source = _slotted_source(scenario.traffic, switch.n,\n"
          "                                 switch.elements[0][0].rng)")],
        "test_each_generator_has_one_owner", "several owners"),
    "clock-seeded-source": (
        "src/repro/core/sources.py",
        [("import numpy as np\n", "import time\n\nimport numpy as np\n"),
         ("        self.start_prob = load / denom if denom > 0 else 1.0\n"
          "        self.rng = make_rng(seed)\n",
          "        self.start_prob = load / denom if denom > 0 else 1.0\n"
          "        self.rng = make_rng(time.time_ns())\n")],
        "test_fresh_interpreters_agree", "differ between interpreters"),
    "entropy-spawned-streams": (
        "src/repro/sim/rng.py",
        [("    return [np.random.default_rng(s) for s in "
          "rng.bit_generator.seed_seq.spawn(n)]\n",
          "    return [np.random.default_rng() for _ in range(n)]\n")],
        "test_fresh_interpreters_agree", "differ between interpreters"),
    "pool-task-binds-parent-generator": (
        "src/repro/scenario/runner.py",
        [("def _run_task(task: tuple[str, Any], live_cb=None) -> list[dict[str, Any]]:\n"
          '    """Dispatch one task; always returns one result per covered job."""\n'
          "    kind, payload = task\n",
          "def _run_task(task: tuple[str, Any], live_cb=None,\n"
          "              rng=None) -> list[dict[str, Any]]:\n"
          '    """Dispatch one task; always returns one result per covered job."""\n'
          "    kind, payload = task\n"
          "    if rng is not None:\n"
          "        payload = (payload[0], int(rng.integers(1 << 30)), *payload[2:])\n"),
         ("pool.submit(_run_task, task)",
          "pool.submit(partial(_run_task, rng=_PARENT_RNG), task)"),
         ("else _run_task(task))", "else _run_task(task, rng=_PARENT_RNG))"),
         (None, "\nfrom functools import partial\n\nimport numpy as np\n\n"
                "_PARENT_RNG = np.random.default_rng(2026)  # built in the parent\n")],
        "test_runner_jobs_agree", "differ between jobs=1 and jobs=2"),
    "job-tuple-carries-parent-generator": (
        "src/repro/scenario/runner.py",
        [('task = ("job", (sc.to_dict(), seed, out, self.sanitize))',
          'task = ("job", (sc.to_dict(), _PARENT_RNG, out, self.sanitize))'),
         ("    scenario_dict, seed, out_dir, sanitize = job\n",
          "    scenario_dict, rng, out_dir, sanitize = job\n"
          "    seed = int(rng.integers(1 << 30))\n"),
         (None, "\nimport numpy as np\n\n"
                "_PARENT_RNG = np.random.default_rng(2026)  # built in the parent\n")],
        "test_runner_jobs_agree", "differ between jobs=1 and jobs=2"),
}

#: id -> (file, edits, contract): idioms the contract must pass, in the
#: same form as :data:`MUTATIONS`
CLEAN_EDITS = {
    "underscore-policy-is-internal": (
        "src/repro/policy/admission.py",
        [(None, "\n\nclass _Experimental(CompleteSharing):\n"
                "    \"\"\"An internal policy: the underscore keeps it out of "
                "POLICIES.\"\"\"\n")],
        "test_every_policy_is_registered_and_prepares"),
}


@pytest.fixture(scope="module")
def src_copy(tmp_path_factory):
    root = tmp_path_factory.mktemp("contracts")
    shutil.copytree(REPO / "src", root / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return root


def _run_contracts(root, *names):
    env = {**os.environ, "PYTHONPATH": str(root / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, "-c", _RUN, str(root / "src"), *names],
                          cwd=REPO, env=env, capture_output=True, text=True,
                          timeout=600)


def test_contracts_pass_unmutated_copy(src_copy):
    proc = _run_contracts(src_copy, *CONTRACTS)
    assert proc.returncode == 0, proc.stderr[-2000:]


def _run_edited(root, rel, edits, contract):
    """Run ``contract`` on ``root`` with ``edits`` applied to ``rel``, then
    put the file back."""
    path = root / rel
    original = edited = path.read_text()
    for anchor, text in edits:
        if anchor is None:
            edited += text
        else:
            assert edited.count(anchor) == 1, (rel, anchor)
            edited = edited.replace(anchor, text)
    try:
        path.write_text(edited)
        return _run_contracts(root, contract)
    finally:
        path.write_text(original)


@pytest.mark.parametrize("case", sorted(MUTATIONS))
def test_mutation_fails_its_contract(src_copy, case):
    rel, edits, contract, needle = MUTATIONS[case]
    proc = _run_edited(src_copy, rel, edits, contract)
    assert proc.returncode != 0, f"{contract} passed the {case} mutation"
    assert needle in proc.stderr, proc.stderr[-2000:]


@pytest.mark.parametrize("case", sorted(CLEAN_EDITS))
def test_clean_edit_passes_its_contract(src_copy, case):
    rel, edits, contract = CLEAN_EDITS[case]
    proc = _run_edited(src_copy, rel, edits, contract)
    assert proc.returncode == 0, proc.stderr[-2000:]
