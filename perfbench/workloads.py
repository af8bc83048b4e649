"""The benchmark's workloads: seeded batches of graphs plus a pinned backend.

Every workload runs ``distributed_louvain`` under the default
``DistributedConfig`` at p = 2 ranks; only ``backend`` is pinned, so a
change of the library default cannot silently change what a workload
measures.  Graphs come from the public generators.  A unit is a batch of
independent graphs whose generator seeds are drawn from the benchmark's
``--seed`` through ``numpy.random.SeedSequence``, so different ``--seed``
values share no graph and one graph's convergence luck (the work of a
single graph varies by about 15 % from seed to seed) is averaged over the
batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

N_RANKS = 2


def graph_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _ba_batch(seed: int) -> list:
    from repro.graph.generators import barabasi_albert

    return [barabasi_albert(1000, 8, seed=s) for s in graph_seeds(seed, 16)]


def _lfr_batch(seed: int) -> list:
    from repro.graph.generators import lfr_graph

    return [lfr_graph(1000, mu=0.1, seed=s).graph for s in graph_seeds(seed, 8)]


@dataclass(frozen=True)
class Workload:
    name: str
    backend: str
    build: Callable[[int], list]

    def config(self):
        from repro import DistributedConfig

        return DistributedConfig(backend=self.backend)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ba-batch-thread", "thread", _ba_batch),
        Workload("lfr-batch-process", "process", _lfr_batch),
    )
}
