"""Seedable random streams, one per ``(seed, stream_id)`` pair."""

import numpy as np


class RngStream:
    """Deterministic random stream identified by ``(seed, stream_id)``; its
    deviates come from the numpy ``generator``.

    Two streams built from the same pair produce identical sequences; streams
    with distinct ids are independent in practice.  All randomness in the
    library flows through streams like this one, each with its own id, so any
    fitted model is a pure function of its seeds.
    """

    def __init__(self, seed, stream_id=0):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        self.generator = np.random.Generator(np.random.PCG64(ss))

    def __repr__(self):
        return "RngStream(seed={}, stream_id={})".format(self.seed, self.stream_id)
