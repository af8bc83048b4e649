"""Golden pin of the distributed pipeline's exact output.

Each case runs ``distributed_louvain`` on a small seeded graph and reduces
the result to a fingerprint: a hash of the assignment, the ``float.hex`` of
Q and of every ``modularity_per_level`` entry, the inner-iteration count of
every level, and a hash of the per-rank per-phase counters (bytes sent and
received, messages, compute units, collectives).
``tests/core/test_agg_equivalence.py`` compares a fresh run of every case
against ``agg_pin.json``.

Regenerate the pin (a behaviour change: say so in CHANGES.md) with::

    PYTHONPATH=src python tests/core/regen_agg_pin.py
"""

from __future__ import annotations

import hashlib
import itertools
import json
from functools import lru_cache
from pathlib import Path

from repro.core import DistributedConfig, distributed_louvain
from repro.graph.generators import barabasi_albert, lfr_graph

PIN_PATH = Path(__file__).with_name("agg_pin.json")
REGEN_CMD = "PYTHONPATH=src python tests/core/regen_agg_pin.py"


@lru_cache(maxsize=None)
def pin_graph(name: str):
    if name == "ba600":
        return barabasi_albert(600, 3, seed=12)
    if name == "lfr300":
        return lfr_graph(300, mu=0.2, seed=21).graph
    raise KeyError(name)


def _cases() -> dict[str, tuple[str, int, dict]]:
    """Case id -> (graph name, ranks, DistributedConfig keywords)."""
    cases: dict[str, tuple[str, int, dict]] = {}
    for p, sync, part in itertools.product(
        [1, 2, 4], ["full", "delta"], ["delegate", "1d"]
    ):
        cases[f"gs-{part}-{sync}-p{p}"] = (
            "ba600", p, dict(sync_mode=sync, partitioning=part),
        )
    for p, sync in itertools.product([1, 2, 4], ["full", "delta"]):
        cases[f"vec-{sync}-p{p}"] = (
            "ba600", p, dict(sync_mode=sync, sweep_mode="vectorized"),
        )
    cases["lfr-delta-delta-p4"] = (
        "lfr300", 4, dict(sync_mode="delta", ghost_mode="delta"),
    )
    for heur, sweep, ghost in itertools.product(
        ["greedy", "minlabel", "enhanced"],
        ["gauss-seidel", "vectorized"],
        ["full", "delta"],
    ):
        cases[f"{heur}-{sweep}-ghost_{ghost}-p4"] = (
            "ba600", 4,
            dict(heuristic=heur, sweep_mode=sweep, ghost_mode=ghost,
                 sync_mode="delta"),
        )
    return cases


CASES = _cases()


def _digest(payload) -> str:
    blob = payload if isinstance(payload, bytes) else json.dumps(
        payload, sort_keys=True
    ).encode()
    return hashlib.sha256(blob).hexdigest()[:20]


def fingerprint(result) -> dict:
    counters = [
        [
            r.bytes_sent_by_phase,
            r.bytes_recv_by_phase,
            r.messages_sent_by_phase,
            r.compute_by_phase,
            r.collectives_by_phase,
        ]
        for r in result.stats.ranks
    ]
    return {
        "assignment": _digest(result.assignment.astype("<i8").tobytes()),
        "q": float(result.modularity).hex(),
        "q_per_level": [float(q).hex() for q in result.modularity_per_level],
        "iterations": [lvl.n_iterations for lvl in result.levels],
        "counters": _digest(counters),
    }


def run_case(case_id: str) -> dict:
    graph_name, p, kw = CASES[case_id]
    cfg = DistributedConfig(d_high=32, timeout=120.0, **kw)
    return fingerprint(distributed_louvain(pin_graph(graph_name), p, cfg))


def load_pin() -> dict:
    return json.loads(PIN_PATH.read_text())


def main() -> None:
    pin = {case_id: run_case(case_id) for case_id in CASES}
    rows = ",\n".join(
        f" {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
        for k, v in sorted(pin.items())
    )
    PIN_PATH.write_text("{\n" + rows + "\n}\n")
    print(f"wrote {len(pin)} cases to {PIN_PATH}")


if __name__ == "__main__":
    main()
