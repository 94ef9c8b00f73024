"""RNG-provenance rules: firings and — just as important — the
sanctioned idioms that must stay clean."""

from pathlib import Path

from repro.drc.linter import run_lint

_SIM_RNG = (
    "import numpy as np\n"
    "def make_rng(seed):\n"
    "    if hasattr(seed, 'integers'):\n"
    "        return seed\n"
    "    return np.random.default_rng(seed)\n"
    "def spawn(rng, n):\n"
    "    return [np.random.default_rng(int(rng.integers(2**32)))\n"
    "            for _ in range(n)]\n"
)

_CONSUMERS = (
    "class SlottedSwitch:\n"
    "    def _admit(self):\n        pass\n"
    "    def _select_departures(self):\n        pass\n"
    "    def occupancy(self):\n        pass\n"
    "class AlphaSwitch(SlottedSwitch):\n"
    "    def __init__(self, rng):\n"
    "        self.rng = rng\n"
)


def _lint(tmp_path: Path, files: dict[str, str]):
    base = {
        "src/repro/sim/rng.py": _SIM_RNG,
        "src/repro/switches/models.py": _CONSUMERS,
    }
    for rel, source in {**base, **files}.items():
        p = tmp_path / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(source)
    return run_lint(["src"], root=tmp_path)


def _codes(result):
    return [v.code for v in result.all_findings()]


def test_drc141_same_stream_two_instances(tmp_path):
    result = _lint(tmp_path, {
        "src/repro/scenario/b.py": (
            "from repro.sim.rng import make_rng\n"
            "from repro.switches.models import AlphaSwitch\n"
            "def build():\n"
            "    rng = make_rng(7)\n"
            "    return AlphaSwitch(rng), AlphaSwitch(rng)\n"
        ),
    })
    hits = [v for v in result.all_findings() if v.code == "DRC141"]
    assert len(hits) == 1 and hits[0].line == 5


def test_drc141_integer_seed_twice_is_clean(tmp_path):
    # matched kernels from the same integer seed are the equivalence-
    # benchmark idiom: only Generator *objects* are tracked
    result = _lint(tmp_path, {
        "src/repro/scenario/b.py": (
            "from repro.sim.rng import make_rng\n"
            "from repro.switches.models import AlphaSwitch\n"
            "def build(seed):\n"
            "    a = AlphaSwitch(make_rng(seed))\n"
            "    b = AlphaSwitch(make_rng(seed))\n"
            "    return a, b\n"
        ),
    })
    assert _codes(result) == []


def test_drc141_spawn_per_consumer_is_clean(tmp_path):
    result = _lint(tmp_path, {
        "src/repro/scenario/b.py": (
            "from repro.sim.rng import make_rng, spawn\n"
            "from repro.switches.models import AlphaSwitch\n"
            "def build(n):\n"
            "    rng = make_rng(7)\n"
            "    return [AlphaSwitch(g) for g in spawn(rng, n)]\n"
        ),
    })
    assert _codes(result) == []


def test_drc141_one_spawn_element_shared_fires(tmp_path):
    result = _lint(tmp_path, {
        "src/repro/scenario/b.py": (
            "from repro.sim.rng import make_rng, spawn\n"
            "from repro.switches.models import AlphaSwitch\n"
            "def build():\n"
            "    streams = spawn(make_rng(7), 4)\n"
            "    g = streams[0]\n"
            "    return AlphaSwitch(g), AlphaSwitch(g)\n"
        ),
    })
    assert "DRC141" in _codes(result)


def test_drc141_make_rng_passthrough_tracks_origin(tmp_path):
    result = _lint(tmp_path, {
        "src/repro/scenario/b.py": (
            "from repro.sim.rng import make_rng\n"
            "from repro.switches.models import AlphaSwitch\n"
            "def build():\n"
            "    rng = make_rng(7)\n"
            "    a = AlphaSwitch(make_rng(rng))\n"
            "    b = AlphaSwitch(rng)\n"
            "    return a, b\n"
        ),
    })
    assert "DRC141" in _codes(result)


def test_drc142_unseeded_default_rng(tmp_path):
    result = _lint(tmp_path, {
        "src/repro/scenario/s.py": (
            "import numpy as np\n"
            "def fresh():\n"
            "    return np.random.default_rng()\n"
        ),
    })
    assert _codes(result) == ["DRC142"]


def test_drc142_wall_clock_seed(tmp_path):
    result = _lint(tmp_path, {
        "src/repro/scenario/s.py": (
            "import time\n"
            "from repro.sim.rng import make_rng\n"
            "def fresh():\n"
            "    return make_rng(int(time.time()) % 1000)\n"
        ),
    })
    assert _codes(result) == ["DRC142"]


def test_drc142_explicit_seed_is_clean(tmp_path):
    result = _lint(tmp_path, {
        "src/repro/scenario/s.py": (
            "import numpy as np\n"
            "from repro.sim.rng import make_rng\n"
            "def fresh(seed):\n"
            "    return make_rng(seed), np.random.default_rng(seed + 1)\n"
        ),
    })
    assert _codes(result) == []


def test_drc143_closure_to_pool(tmp_path):
    result = _lint(tmp_path, {
        "src/repro/scenario/f.py": (
            "from repro.sim.rng import make_rng\n"
            "def launch(pool):\n"
            "    rng = make_rng(3)\n"
            "    def task():\n"
            "        return int(rng.integers(10))\n"
            "    return pool.submit(task)\n"
        ),
    })
    assert _codes(result) == ["DRC143"]


def test_drc143_lambda_to_pool(tmp_path):
    result = _lint(tmp_path, {
        "src/repro/scenario/f.py": (
            "from repro.sim.rng import make_rng\n"
            "def launch(pool):\n"
            "    rng = make_rng(3)\n"
            "    return pool.map(lambda _: int(rng.integers(10)), range(4))\n"
        ),
    })
    assert _codes(result) == ["DRC143"]


def test_drc143_seed_in_task_tuple_is_clean(tmp_path):
    # the ScenarioRunner discipline: module-level worker, seeds shipped
    # as data, stream built inside the worker
    result = _lint(tmp_path, {
        "src/repro/scenario/f.py": (
            "from repro.sim.rng import make_rng\n"
            "def _worker(seed):\n"
            "    rng = make_rng(seed)\n"
            "    return int(rng.integers(10))\n"
            "def launch(pool, seeds):\n"
            "    return [pool.submit(_worker, s) for s in seeds]\n"
        ),
    })
    assert _codes(result) == []


def test_suppression_works_on_project_rules(tmp_path):
    result = _lint(tmp_path, {
        "src/repro/scenario/s.py": (
            "import numpy as np\n"
            "def fresh():\n"
            "    return np.random.default_rng()  # drc: disable=DRC142\n"
        ),
    })
    assert _codes(result) == []
    assert result.suppressed == 1
