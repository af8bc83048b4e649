"""Per-layer measurements, taken from outside the library.

Two sources feed the ledger:

* a traced ``distributed_louvain`` call (``tracer=TraceRecorder()``), whose
  phase, collective and receive spans and ``RunStats`` counters are folded
  into per-layer numbers by :func:`traced_layers`;
* direct probes of single layers through their public functions:
  ``delegate_partition`` (:func:`partition_probe`), ``run_spmd``
  micro-programs (:func:`runtime_probe`) and ``sequential_louvain``
  (:func:`sequential_probe`).

The SPMD micro-programs are module-level functions so the process backend
can pickle them by import path.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

import numpy as np

STAGES = ("s1", "s2")
SWEEP_PHASES = ("find_best", "bcast_delegates", "swap_ghost", "other")
MB = 1e6


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------
def _span_sums(spans) -> tuple[dict, dict]:
    """Per (rank, phase) seconds: time inside phase spans, and time inside
    collective and blocking-receive spans attributed to that phase."""
    busy: dict = defaultdict(float)
    wait: dict = defaultdict(float)
    for s in spans:
        if s.cat == "phase":
            busy[s.rank, s.name] += s.dur_us * 1e-6
        elif s.cat == "collective" or (s.cat == "p2p" and s.name == "recv"):
            wait[s.rank, s.args.get("phase", "")] += s.dur_us * 1e-6
    return busy, wait


def traced_layers(calls, startup_s: float) -> dict[str, float]:
    """Fold traced calls into the per-layer ledger.

    ``calls`` holds one ``(result, call_wall_s)`` pair per
    ``distributed_louvain`` call of the unit; ``startup_s`` is the measured
    cost of starting the backend once.  Times and counts are summed over
    the calls; a phase time is the per-rank span sum of the slowest rank.
    """
    out: dict[str, float] = defaultdict(float)
    wall = part = spmd = compose = rank0_spans = 0.0
    rank_busy: dict = defaultdict(float)
    rank_wait: dict = defaultdict(float)
    for result, call_wall in calls:
        stats = result.stats
        ranks = range(stats.size)
        busy, wait = _span_sums(stats.spans)
        phases = {ph for (_, ph) in busy} | {ph for (_, ph) in wait}

        def slowest(table, phase):
            return max(table.get((r, phase), 0.0) for r in ranks)

        for stage in STAGES:
            for ph in SWEEP_PHASES:
                if (stage, ph) == ("s2", "bcast_delegates"):
                    continue  # stage 2 runs without delegates
                name = f"{stage}:{ph}"
                key = f"local_clustering.{stage}.{ph}"
                out[key + "_s"] += slowest(busy, name)
                if ph != "find_best":  # the sweep itself never communicates
                    out[key + "_wait_s"] += slowest(wait, name)
                    out[key + "_mb"] += float(stats.phase_bytes_sent(name).sum()) / MB
            out[f"merging.{stage}.merge_s"] += slowest(busy, f"{stage}:merge")
        out["merging.s2.merge_mb"] += float(stats.phase_bytes_sent("s2:merge").sum()) / MB

        for r in ranks:
            rank_busy[r] += sum(busy.get((r, ph), 0.0) for ph in phases)
            rank_wait[r] += sum(wait.get((r, ph), 0.0) for ph in phases)
        r0 = sum(busy.get((0, ph), 0.0) for ph in phases)
        rank0_spans += r0

        out["runtime.collectives"] += sum(r.total_collectives for r in stats.ranks)
        out["runtime.messages"] += sum(r.total_messages_sent for r in stats.ranks)
        out["runtime.bytes_sent"] += float(stats.bytes_sent_per_rank().sum())
        out["runtime.supersteps"] += stats.n_supersteps()
        out["runtime.unspanned_s"] += result.wall_time - r0
        out["local_clustering.iterations"] += sum(lv.n_iterations for lv in result.levels)
        out["local_clustering.compute_units"] += float(stats.compute_per_rank().sum())
        out["distributed.levels"] += result.n_levels

        wall += call_wall
        part += result.partition_time
        spmd += result.wall_time
        compose += call_wall - result.partition_time - result.wall_time

    busy_compute = [rank_busy[r] - rank_wait[r] for r in rank_busy]
    out["runtime.wait_s"] = max(rank_wait.values())
    out["runtime.wait_frac"] = sum(rank_wait.values()) / sum(rank_busy.values())
    out["runtime.imbalance"] = max(busy_compute) / statistics.fmean(busy_compute)
    out["distributed.partition_s"] = part
    out["distributed.spmd_s"] = spmd
    out["distributed.compose_s"] = compose
    accounted = part + len(calls) * startup_s + rank0_spans + compose
    out["distributed.unaccounted_frac"] = 1.0 - accounted / wall
    out["tracing.traced_wall_s"] = wall
    return dict(out)


# ----------------------------------------------------------------------
# partition layer
# ----------------------------------------------------------------------
def partition_probe(graphs, n_ranks: int, repeats: int = 5) -> dict[str, float]:
    """``delegate_partition`` under the default ``d_high``/``rebalance``:
    median time (summed over the graphs), hub count (summed), local-edge
    imbalance max/mean and the largest per-rank ghost count (worst graph)."""
    from repro import DistributedConfig
    from repro.partition.delegate import delegate_partition

    cfg = DistributedConfig()
    time_s = hubs = 0.0
    imbalance = ghosts = 0.0
    for g in graphs:
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            part = delegate_partition(g, n_ranks, d_high=cfg.d_high, rebalance=cfg.rebalance)
            samples.append(time.perf_counter() - t0)
        time_s += statistics.median(samples)
        hubs += part.hub_global_ids.size
        edges = [lg.indices.size for lg in part.locals]
        imbalance = max(imbalance, max(edges) / statistics.fmean(edges))
        ghosts = max(ghosts, max(lg.n_ghosts for lg in part.locals))
    return {
        "partition.time_s": time_s,
        "partition.hubs": hubs,
        "partition.edge_imbalance": imbalance,
        "partition.ghosts_max": ghosts,
    }


# ----------------------------------------------------------------------
# runtime layer: SPMD micro-programs
# ----------------------------------------------------------------------
def noop_program(comm):
    return None


def allreduce_program(comm, k: int) -> float:
    comm.barrier()
    t0 = time.perf_counter()
    for i in range(k):
        comm.allreduce(i)
    return (time.perf_counter() - t0) / k


def alltoall_program(comm, k: int) -> float:
    payload = [np.arange(4, dtype=np.int64) for _ in range(comm.size)]
    comm.barrier()
    t0 = time.perf_counter()
    for _ in range(k):
        comm.alltoall(payload)
    return (time.perf_counter() - t0) / k


def bcast_program(comm, k: int, nbytes: int) -> float:
    block = np.ones(nbytes // 8, dtype=np.float64)
    comm.barrier()
    t0 = time.perf_counter()
    for _ in range(k):
        comm.bcast(block if comm.rank == 0 else None, root=0)
    return (time.perf_counter() - t0) / k


def runtime_probe(backend: str, n_ranks: int) -> dict[str, float]:
    """Backend start-up (median wall of a no-op ``run_spmd``) and
    per-operation collective latency, timed inside the ranks (slowest
    rank)."""
    from repro.runtime import run_spmd

    startup = []
    for _ in range(5 if backend == "process" else 25):
        t0 = time.perf_counter()
        run_spmd(n_ranks, noop_program, backend=backend)
        startup.append(time.perf_counter() - t0)

    def per_op(program, *args) -> float:
        return max(run_spmd(n_ranks, program, *args, backend=backend).results)

    return {
        "runtime.startup_s": statistics.median(startup),
        "runtime.allreduce_us": per_op(allreduce_program, 1000) * 1e6,
        "runtime.alltoall_us": per_op(alltoall_program, 1000) * 1e6,
        "runtime.bcast_1mb_ms": per_op(bcast_program, 50, 1 << 20) * 1e3,
    }


# ----------------------------------------------------------------------
# sequential baseline
# ----------------------------------------------------------------------
def sequential_probe(graphs) -> tuple[dict[str, float], float]:
    """``sequential_louvain`` on every graph: summed wall, sweeps and
    levels, plus the mean Q (the ``q_ratio`` denominator)."""
    from repro import sequential_louvain

    wall = sweeps = levels = 0.0
    qs = []
    for g in graphs:
        t0 = time.perf_counter()
        res = sequential_louvain(g)
        wall += time.perf_counter() - t0
        sweeps += sum(res.sweeps_per_level)
        levels += res.n_levels
        qs.append(res.modularity)
    layers = {"sequential.wall_s": wall, "sequential.sweeps": sweeps, "sequential.levels": levels}
    return layers, statistics.fmean(qs)
