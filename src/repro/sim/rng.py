"""Deterministic random number helpers.

Every stochastic component in the repository takes an explicit seed (or an
already-constructed generator); nothing touches global random state.  This
makes every experiment in ``benchmarks/`` exactly repeatable.
"""

from __future__ import annotations

import numpy as np

DEFAULT_SEED = 0x5161_C0_1995  # SIGCOMM 1995


def make_rng(seed: int | np.random.Generator | None = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for the given seed.

    ``None`` maps to the repository-wide default seed (experiments are
    reproducible by default); an existing generator is passed through, and
    its caller hands it to no other component: each generator has exactly
    one owner (use :func:`spawn` for independent per-component streams).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        seed = DEFAULT_SEED
    return np.random.default_rng(seed)


def spawn(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Split ``rng`` into ``n`` independent child generators.

    Used by multi-link traffic sources so each link has an independent
    stream (the paper's section 3.4 analysis assumes independent per-link
    traffic).
    """
    return [np.random.default_rng(s) for s in rng.bit_generator.seed_seq.spawn(n)]
