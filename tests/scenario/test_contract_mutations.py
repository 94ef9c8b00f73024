"""The runtime contracts catch what the retired lint rules caught.

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
    "test_sim_packages_use_no_global_rng",
    "test_each_metric_name_has_one_shape",
    "test_every_metric_is_in_its_cell_registry",
    "test_fresh_interpreters_agree",
    "test_runner_jobs_agree",
)

#: the tests of ``test_contracts.py`` that check its cell matrix or a
#: helper rather than the tree under ``src/``
NOT_CONTRACTS = (
    "test_matrix_covers_every_arch_and_kind",
    "test_refused_cells_raise_their_named_error",
    "test_generator_owners_sees_a_shared_stream",
    "test_generator_owners_integer_seed_twice_is_clean",
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
    "wall-clock-tie-break": (
        "src/repro/switches/input_queued.py",
        [("from collections import deque\n",
          "import time\nfrom collections import deque\n"),
         ("winner = inputs[int(self.rng.integers(0, k))] if k > 1 else inputs[0]",
          "winner = inputs[time.perf_counter_ns() % k] if k > 1 else inputs[0]")],
        "test_fresh_interpreters_agree", "fifo-uniform-0.7"),
    "stdlib-random-tie-break": (
        "src/repro/switches/input_queued.py",
        [("from collections import deque\n",
          "import random\nfrom collections import deque\n"),
         ("winner = inputs[int(self.rng.integers(0, k))] if k > 1 else inputs[0]",
          "winner = inputs[int(random.random() * k)] if k > 1 else inputs[0]")],
        "test_sim_packages_use_no_global_rng", "input_queued.py:13: import random"),
    "numpy-global-tie-break": (
        "src/repro/switches/speedup.py",
        [("winner = inputs[int(self.rng.integers(0, k))] if k > 1 else inputs[0]",
          "winner = inputs[int(np.random.randint(k))] if k > 1 else inputs[0]")],
        "test_sim_packages_use_no_global_rng", "speedup.py:75: np.random.randint"),
    "set-ordered-drop-causes": (
        "src/repro/scenario/registry.py",
        [("            overrun_drops=sw.overrun_drops,\n"
          "            policy_drops=sw.policy_drops,\n"
          "        )\n",
          "        )\n"
          "        stats.update({cause: getattr(sw, cause)\n"
          "                      for cause in {'overrun_drops', 'policy_drops'}})\n")],
        "test_fresh_interpreters_agree", "pipelined-renewal_tape-0.7"),
    "direct-counter-metric": (
        "src/repro/core/instrumentation.py",
        [("from repro.drc.sanitizer import",
          "from repro.telemetry.metrics import CounterMetric\n"
          "from repro.drc.sanitizer import"),
         ('self._m_idle = m.counter("repro_idle_cycles_total")',
          'self._m_idle = CounterMetric("repro_idle_cycles_total")')],
        "test_every_metric_is_in_its_cell_registry",
        "repro_idle_cycles_total at switch._m_idle"),
    "drops-under-link-label": (
        "src/repro/switches/base.py",
        [('m.counter("repro_port_drops_total", port=i, cause=DROP_BUFFER_FULL)',
          'm.counter("repro_port_drops_total", link=i, cause=DROP_BUFFER_FULL)')],
        "test_each_metric_name_has_one_shape",
        "repro_port_drops_total: CounterMetric['cause', 'link']"),
    "late-drops-under-link-label": (
        "src/repro/switches/base.py",
        [('"repro_port_drops_total", port=cell.src, cause=cause',
          '"repro_port_drops_total", link=cell.src, cause=cause')],
        "test_each_metric_name_has_one_shape",
        "CounterMetric['cause', 'link'] in knockout-uniform-0.7"),
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
    "flush-timer-in-core": (
        "src/repro/core/batchpath.py",
        [("import math\n", "import math\nimport time\n"),
         ("        self._flush()\n        return self.stats\n",
          "        started = time.perf_counter_ns()\n"
          "        self._flush()\n"
          "        self.flush_ns = (getattr(self, 'flush_ns', 0)\n"
          "                         + time.perf_counter_ns() - started)\n"
          "        return self.stats\n")],
        "test_fresh_interpreters_agree"),
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


def test_unmutated_copy_runs_every_contract():
    """A contract added to ``test_contracts.py`` must join
    :data:`CONTRACTS`, so the unmutated copy is held to it too."""
    from tests.scenario import test_contracts
    tests = {name for name in vars(test_contracts) if name.startswith("test_")}
    assert set(NOT_CONTRACTS) <= tests
    assert tests - set(NOT_CONTRACTS) == set(CONTRACTS)


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
