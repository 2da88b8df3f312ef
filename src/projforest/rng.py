"""Seedable random streams: one numpy Generator per ``(seed, *key)``.

All randomness in the library is drawn from generators built here, each
from its own key under a seed, so any fitted model is a pure function of
its seeds.
"""

import numpy as np

from .data import check_integer


def stream(seed, *key):
    """A ``numpy.random.Generator`` on ``SeedSequence(seed, spawn_key=key)``.

    Two calls with the same seed and key draw identical sequences; distinct
    keys are independent in practice.  ``stream(seed)`` draws what
    ``SeedSequence(seed)`` draws.  ``seed`` must be an integer >= 0 (numpy
    integers count, ``bool`` does not).
    """
    check_integer("seed", seed, 0)
    ss = np.random.SeedSequence(seed, spawn_key=key)
    return np.random.Generator(np.random.PCG64(ss))
