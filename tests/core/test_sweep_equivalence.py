"""Equivalence tests for the vectorized sweep kernel.

Three layers of evidence that ``sweep_mode="vectorized"`` computes the same
algorithm as the scalar Gauss–Seidel loop:

1. **Snapshot equivalence** — against one frozen community state, the bulk
   kernel's per-row ``(chosen, gain, stay)`` must match
   ``LocalClustering._evaluate_vertex`` (on dict mirrors of the same
   ``CommunityTable``) *exactly*, for every heuristic
   (same Eq. 4 arithmetic, same tie-breaking, same vetoes);
2. **End-to-end equivalence** — full pipeline runs in both modes land on
   equivalent final modularity (trajectories legitimately differ:
   Gauss–Seidel applies moves mid-sweep, Jacobi applies them in bulk);
3. **Accounting invariants** — both modes keep the protocol/byte structure
   intact (self-consistent Q, delta traffic never exceeding full traffic).
"""

import numpy as np
import pytest

from repro.core import DistributedConfig, distributed_louvain, sequential_louvain
from repro.core.heuristics import get_heuristic
from repro.core.local_clustering import LocalClustering
from repro.core.modularity import modularity
from repro.core.sweep_kernel import bulk_best_moves
from repro.partition import delegate_partition
from repro.runtime import run_spmd

# Jacobi and Gauss-Seidel visit different move orders, so they may settle
# in different (equally good) local optima; this bounds the allowed gap.
Q_TOL = 0.03


def _run(graph, p, **kw):
    kw.setdefault("d_high", 40)
    return distributed_louvain(graph, p, DistributedConfig(**kw))


def _snapshot_mismatches(graph, p, heuristic):
    """Compare kernel vs scalar evaluator on one frozen state, all ranks."""
    partition = delegate_partition(graph, p, d_high=40)

    def worker(comm):
        lg = partition.locals[comm.rank]
        lc = LocalClustering(comm, lg, get_heuristic(heuristic))
        lc.sync_aggregates()
        chosen, gain, stay = bulk_best_moves(
            entry_rows=lc._entry_rows,
            indices=lg.indices,
            weights=lg.weights,
            comm_of=lc.comm_of,
            row_wdeg=lg.row_weighted_degree,
            n_rows=lg.n_rows,
            table=lc.ctab,
            two_m=lc.two_m,
            resolution=lc.resolution,
            theta=lc.theta,
            heuristic_name=heuristic,
        )
        # the scalar evaluator reads the per-pass dict mirrors of the table
        lc.sigma_tot, lc.csize, lc.local_members = lc.ctab.as_dicts()
        bad = []
        for u in range(lg.n_rows):
            c, g, s = lc._evaluate_vertex(u)
            if (
                c != int(chosen[u])
                or abs(g - gain[u]) > 1e-9
                or abs(s - stay[u]) > 1e-9
            ):
                bad.append((comm.rank, u, c, int(chosen[u])))
        return bad

    results = run_spmd(p, worker, timeout=60.0).results
    return [entry for rank_bad in results for entry in rank_bad]


class TestSnapshotEquivalence:
    """The kernel must reproduce the scalar evaluator vertex for vertex."""

    @pytest.mark.parametrize("heuristic", ["greedy", "minlabel", "enhanced"])
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_karate_exact(self, karate, heuristic, p):
        assert _snapshot_mismatches(karate, p, heuristic) == []

    @pytest.mark.parametrize("heuristic", ["greedy", "minlabel", "enhanced"])
    def test_web_graph_exact(self, web_graph, heuristic):
        assert _snapshot_mismatches(web_graph, 4, heuristic) == []

    def test_scale_free_exact(self, ba_graph):
        assert _snapshot_mismatches(ba_graph, 4, "enhanced") == []


class TestEndToEndEquivalence:
    @pytest.mark.parametrize("p", [1, 2, 8])
    def test_karate(self, karate, p):
        gs = _run(karate, p, sweep_mode="gauss-seidel")
        vec = _run(karate, p, sweep_mode="vectorized")
        assert np.isclose(vec.modularity, modularity(karate, vec.assignment))
        assert abs(gs.modularity - vec.modularity) < Q_TOL

    @pytest.mark.parametrize("p", [1, 2, 8])
    def test_lfr(self, lfr_small, p):
        g = lfr_small.graph
        gs = _run(g, p, sweep_mode="gauss-seidel")
        vec = _run(g, p, sweep_mode="vectorized")
        assert np.isclose(vec.modularity, modularity(g, vec.assignment))
        assert abs(gs.modularity - vec.modularity) < Q_TOL

    @pytest.mark.parametrize("p", [1, 2, 8])
    def test_scale_free(self, ba_graph, p):
        gs = _run(ba_graph, p, sweep_mode="gauss-seidel")
        vec = _run(ba_graph, p, sweep_mode="vectorized")
        assert np.isclose(
            vec.modularity, modularity(ba_graph, vec.assignment)
        )
        assert abs(gs.modularity - vec.modularity) < Q_TOL

    def test_tracks_sequential_on_lfr(self, lfr_small):
        seq = sequential_louvain(lfr_small.graph)
        vec = _run(lfr_small.graph, 4, sweep_mode="vectorized")
        assert vec.modularity > seq.modularity - 0.05

    @pytest.mark.parametrize("heuristic", ["greedy", "minlabel", "enhanced"])
    def test_all_heuristics_self_consistent(self, web_graph, heuristic):
        res = _run(
            web_graph, 4, sweep_mode="vectorized", heuristic=heuristic,
            max_inner=30,
        )
        assert np.isclose(
            res.modularity, modularity(web_graph, res.assignment)
        ), heuristic


class TestModeGrid:
    """sweep_mode x sync_mode x ghost_mode: every combination must be
    self-consistent and land near the full/full Gauss-Seidel baseline."""

    @pytest.mark.parametrize("sweep", ["gauss-seidel", "vectorized"])
    @pytest.mark.parametrize("sync", ["full", "delta"])
    @pytest.mark.parametrize("ghost", ["full", "delta"])
    def test_grid_self_consistent(self, lfr_small, sweep, sync, ghost):
        g = lfr_small.graph
        res = _run(g, 4, sweep_mode=sweep, sync_mode=sync, ghost_mode=ghost)
        assert np.isclose(res.modularity, modularity(g, res.assignment))
        assert res.modularity > 0.75

    @pytest.mark.parametrize("sweep", ["gauss-seidel", "vectorized"])
    def test_delta_traffic_never_exceeds_full(self, lfr_small, sweep):
        g = lfr_small.graph
        full = _run(g, 4, sweep_mode=sweep)
        delta = _run(
            g, 4, sweep_mode=sweep, sync_mode="delta", ghost_mode="delta"
        )
        full_bytes = sum(r.total_bytes_sent for r in full.stats.ranks)
        delta_bytes = sum(r.total_bytes_sent for r in delta.stats.ranks)
        assert delta_bytes <= full_bytes
        # received volume must mirror sent volume under both modes
        for res in (full, delta):
            sent = sum(r.total_bytes_sent for r in res.stats.ranks)
            recv = sum(r.total_bytes_recv for r in res.stats.ranks)
            assert recv <= sent  # tree collectives receive less than sent


class TestSweepModeSurface:
    def test_bad_mode_rejected(self, karate):
        with pytest.raises(Exception):
            _run(karate, 2, sweep_mode="bogus")

    def test_compute_units_match_scalar_sweep(self, karate):
        """Both modes scan every directed entry once per inner iteration,
        so compute-per-iteration must be identical."""
        gs = _run(karate, 2, sweep_mode="gauss-seidel", max_inner=1)
        vec = _run(karate, 2, sweep_mode="vectorized", max_inner=1)

        def first_level_compute(res):
            return sum(
                r.compute_by_phase.get("s1:find_best", 0.0)
                for r in res.stats.ranks
            )

        gs_iters = gs.levels[0].n_iterations
        vec_iters = vec.levels[0].n_iterations
        assert first_level_compute(gs) / max(gs_iters, 1) == pytest.approx(
            first_level_compute(vec) / max(vec_iters, 1)
        )
