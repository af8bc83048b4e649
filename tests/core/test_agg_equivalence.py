"""Exactness of the aggregate-sync and merge kernels.

The numpy table kernels replaced the seed's dict-based owner aggregation,
pull/push caches and merge assembly while claiming *bitwise* equivalence:
identical labels, identical Q to the last ulp, identical per-phase wire
bytes.  This suite pins that claim:

1. **Unit** — ``OwnerTable`` against a literal dict reference, including
   the insertion-order float accumulation of partial modularity;
2. **Merge** — ``merge_level`` field-by-field on every rank against the
   dict-based reference assembly kept here as an oracle;
3. **End-to-end golden pin** — the full pipeline over p × sync_mode ×
   partitioning × sweep_mode (plus ghost_mode × heuristic) on seeded
   graphs must reproduce ``agg_pin.json`` exactly: assignment, Q bits,
   iteration counts and every per-rank per-phase counter.  The pin was
   recorded while the dict reference still ran end to end.
"""

import numpy as np
import pytest

from repro.core import merging
from repro.core.community_table import OwnerTable
from repro.core.merging import merge_level
from repro.partition import delegate_partition, oned_partition
from repro.runtime import run_spmd
from tests.core.regen_agg_pin import CASES, REGEN_CMD, load_pin, run_case


class DictOwnerReference:
    """Literal transcription of the seed's scalar owner-aggregation loop."""

    def __init__(self):
        self.own = {}

    def merge(self, labels, tot, cnt, s_in):
        changed = set()
        for lab, t, c, i in zip(
            labels.tolist(), tot.tolist(), cnt.tolist(), s_in.tolist()
        ):
            acc = self.own.get(lab)
            if acc is None:
                acc = self.own[lab] = [0.0, 0.0, 0.0]
            acc[0] += t
            acc[1] += c
            acc[2] += i
            changed.add(lab)
        return changed

    def drop_dead(self):
        dead = [lab for lab, acc in self.own.items() if acc[1] <= 0.5]
        for lab in dead:
            del self.own[lab]
        return dead

    def partial_modularity(self, two_m, resolution):
        q = 0.0
        for acc in self.own.values():  # dict preserves insertion order
            q += acc[2] / two_m - resolution * (acc[0] / two_m) ** 2
        return q


class TestOwnerTableUnit:
    def _random_round(self, rng, n_labels):
        labs = rng.choice(n_labels, size=rng.integers(1, 30), replace=False)
        return (
            labs.astype(np.int64),
            rng.standard_normal(labs.size) + 3.0,
            rng.integers(0, 4, size=labs.size).astype(np.float64),
            np.abs(rng.standard_normal(labs.size)),
        )

    def test_matches_dict_reference_over_rounds(self, rng):
        table, ref = OwnerTable(), DictOwnerReference()
        for _ in range(25):
            labs, tot, cnt, s_in = self._random_round(rng, 40)
            changed = table.merge_stream(labs, tot, cnt, s_in)
            ref_changed = ref.merge(labs, tot, cnt, s_in)
            assert set(changed.tolist()) == ref_changed
            assert np.array_equal(table.labels, sorted(ref.own))
            for lab, acc in ref.own.items():
                t, c = table.lookup(np.array([lab], dtype=np.int64))
                assert t[0] == acc[0] and c[0] == acc[1]  # bitwise
            # the headline claim: identical float reduction order
            assert table.partial_modularity(50.0, 1.0) == ref.partial_modularity(
                50.0, 1.0
            )

    def test_drop_dead_matches(self, rng):
        table, ref = OwnerTable(), DictOwnerReference()
        labs = np.arange(10, dtype=np.int64)
        cnt = np.array([0.0, 1, 0, 2, 0, 3, 0, 4, 0, 5], dtype=np.float64)
        vals = np.ones(10)
        table.merge_stream(labs, vals, cnt, vals)
        ref.merge(labs, vals, cnt, vals)
        assert sorted(table.drop_dead().tolist()) == sorted(ref.drop_dead())
        assert np.array_equal(table.labels, sorted(ref.own))

    def test_lookup_missing_raises_keyerror(self):
        table = OwnerTable()
        table.merge_stream(
            np.array([3], dtype=np.int64), np.ones(1), np.ones(1), np.ones(1)
        )
        with pytest.raises(KeyError):
            table.lookup(np.array([3, 7], dtype=np.int64))

    def test_insertion_order_not_label_order(self):
        # labels arriving high-first must accumulate Q in arrival order
        table, ref = OwnerTable(), DictOwnerReference()
        labs = np.array([9, 1, 5], dtype=np.int64)
        tot = np.array([0.3, 0.7, 0.1])
        one = np.ones(3)
        table.merge_stream(labs, tot, one, tot * 0.9)
        ref.merge(labs, tot, one, tot * 0.9)
        assert table.partial_modularity(2.0, 1.3) == ref.partial_modularity(
            2.0, 1.3
        )


def _assemble_scalar(
    rank: int, size: int, k: int, ncu: np.ndarray, ncv: np.ndarray, nw: np.ndarray
):
    """Dict-based reference assembly of one rank's coarse rows (the seed's
    ``merge_level`` step 4), the oracle for ``merging._assemble``."""
    owned = np.arange(rank, k, size, dtype=np.int64)
    wdeg = np.zeros(owned.size)
    owned_pos = {int(c): i for i, c in enumerate(owned)}
    selfloop = np.zeros(owned.size)
    for c, d, ww in zip(ncu.tolist(), ncv.tolist(), nw.tolist()):
        i = owned_pos[c]
        wdeg[i] += ww
        if c == d:
            selfloop[i] += ww / 2.0

    ghosts = np.unique(ncv[(ncv % size) != rank])
    global_ids = np.concatenate([owned, ghosts])
    local_of = {}
    for i, g in enumerate(global_ids.tolist()):
        local_of[g] = i

    # store the self-loop at half its aggregated (doubled) weight
    stored_w = np.where(ncu == ncv, nw / 2.0, nw)
    src_local = np.fromiter(
        (local_of[c] for c in ncu.tolist()), dtype=np.int64, count=ncu.size
    )
    dst_local = np.fromiter(
        (local_of[c] for c in ncv.tolist()), dtype=np.int64, count=ncv.size
    )
    return owned, wdeg, selfloop, ghosts, global_ids, src_local, dst_local, stored_w


def _merge_all_fields(graph, p, kind, seed=3):
    rng = np.random.default_rng(seed)
    assignment = rng.integers(0, max(graph.n_vertices // 4, 2),
                              size=graph.n_vertices)
    part = (
        oned_partition(graph, p)
        if kind == "1d"
        else delegate_partition(graph, p, d_high=20)
    )

    def worker(comm):
        lg = part.locals[comm.rank]
        return merge_level(comm, lg, assignment[lg.global_ids])

    # threads: the reference run patches the assembly in this interpreter
    return run_spmd(p, worker, timeout=60, backend="thread").results


class TestMergeImplEquivalence:
    @pytest.mark.parametrize("p", [1, 2, 4])
    @pytest.mark.parametrize("kind", ["1d", "delegate"])
    def test_vectorized_assembly_bitwise(self, ba_graph, p, kind, monkeypatch):
        vec = _merge_all_fields(ba_graph, p, kind)
        monkeypatch.setattr(merging, "_assemble", _assemble_scalar)
        ref = _merge_all_fields(ba_graph, p, kind)
        for (vlg, vf, vc), (slg, sf, sc) in zip(vec, ref):
            assert np.array_equal(vf, sf) and np.array_equal(vc, sc)
            for name in (
                "global_ids", "indptr", "indices", "hub_global_ids"
            ):
                assert np.array_equal(getattr(vlg, name), getattr(slg, name))
            for name in ("weights", "row_weighted_degree", "row_selfloop"):
                assert getattr(vlg, name).tobytes() == getattr(slg, name).tobytes()
            assert vlg.n_owned == slg.n_owned and vlg.n_global == slg.n_global
            assert sorted(vlg.send_to) == sorted(slg.send_to)
            for r in vlg.send_to:
                assert np.array_equal(vlg.send_to[r], slg.send_to[r])
            for r in vlg.recv_from:
                assert np.array_equal(vlg.recv_from[r], slg.recv_from[r])


PIN = load_pin()


def _assert_pinned(case_id):
    got, want = run_case(case_id), PIN[case_id]
    diverged = sorted(k for k in want if got.get(k) != want[k])
    assert not diverged, (
        f"{case_id}: {diverged} diverged from the golden pin "
        f"(tests/core/agg_pin.json): got {got}, pinned {want}.  If the "
        f"behaviour change is intended, regenerate with `{REGEN_CMD}` and "
        f"state it in CHANGES.md"
    )


EXTRA_CASES = sorted(
    c for c in CASES if c.split("-")[0] in ("greedy", "minlabel", "enhanced")
)


class TestEndToEndEquivalence:
    @pytest.mark.parametrize("p", [1, 2, 4])
    @pytest.mark.parametrize("sync_mode", ["full", "delta"])
    @pytest.mark.parametrize("partitioning", ["delegate", "1d"])
    def test_gauss_seidel_grid(self, p, sync_mode, partitioning):
        _assert_pinned(f"gs-{partitioning}-{sync_mode}-p{p}")

    @pytest.mark.parametrize("p", [1, 2, 4])
    @pytest.mark.parametrize("sync_mode", ["full", "delta"])
    def test_vectorized_sweep_grid(self, p, sync_mode):
        _assert_pinned(f"vec-{sync_mode}-p{p}")

    def test_lfr_delta_delta(self):
        _assert_pinned("lfr-delta-delta-p4")

    @pytest.mark.parametrize("case_id", EXTRA_CASES)
    def test_heuristic_ghost_grid(self, case_id):
        _assert_pinned(case_id)

    def test_pin_covers_every_case(self):
        assert sorted(PIN) == sorted(CASES), f"regenerate with `{REGEN_CMD}`"
