"""Write-back contract between the Gauss-Seidel dict mirrors and the table.

A Gauss-Seidel pass reads and updates dict mirrors of
``LocalClustering.ctab`` move by move (``_apply_move``), then replays the
recorded moves onto the table in one ``_apply_moves_bulk`` call.  Given
distinct rows whose current labels are all cached, the replay must leave
the table's ``sigma_tot`` / ``size`` / ``local`` columns bit-identical to
the mirrors.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.heuristics import get_heuristic
from repro.core.local_clustering import LocalClustering
from repro.graph.csr import CSRGraph
from repro.partition import delegate_partition

CACHED = list(range(0, 40, 3))  # labels the table holds before the moves
UNCACHED = [100, 101, 102]  # targets first seen in the move stream


@pytest.fixture(scope="module")
def lg():
    rng = np.random.default_rng(8)
    n = 40
    edges = np.stack([rng.integers(0, n, 160), rng.integers(0, n, 160)], axis=1)
    edges = edges[edges[:, 0] != edges[:, 1]]
    graph = CSRGraph.from_edges(n, edges, rng.uniform(0.1, 3.0, len(edges)))
    local = delegate_partition(graph, 2, d_high=9).locals[0]
    assert local.n_hubs > 0  # moves of non-owned rows must be covered too
    return local


def _clustering(lg, sigma, size, local, row_labels):
    lc = LocalClustering(SimpleNamespace(size=2, rank=0), lg, get_heuristic("enhanced"))
    labels = np.asarray(CACHED, dtype=np.int64)
    lc.ctab.rebuild(labels, np.asarray(sigma), np.asarray(size, dtype=np.int64))
    lc.ctab.local[:] = local
    lc.comm_of[: lg.n_rows] = row_labels
    lc._cof_list = lc.comm_of.tolist()
    return lc


def _bits(sigma, size, local):
    # a hub row moving to an uncached label inserts a table row whose local
    # count is 0 but adds no local mirror key: compare what a mirror read
    # (``get(label, 0)``) returns for every cached label
    return (
        {k: v.hex() for k, v in sigma.items()},
        size,
        {k: local.get(k, 0) for k in sigma},
    )


def _check(lg, sigma, size, local, row_labels, moves):
    seq = _clustering(lg, sigma, size, local, row_labels)
    seq.sigma_tot, seq.csize, seq.local_members = seq.ctab.as_dicts()
    for u, tgt in moves:
        seq._apply_move(u, tgt)

    bulk = _clustering(lg, sigma, size, local, row_labels)
    bulk._apply_moves_bulk(
        np.asarray([u for u, _ in moves], dtype=np.int64),
        np.asarray([t for _, t in moves], dtype=np.int64),
    )
    assert _bits(*bulk.ctab.as_dicts()) == _bits(
        seq.sigma_tot, seq.csize, seq.local_members
    )
    assert bulk.comm_of.tolist() == seq._cof_list


@st.composite
def scenarios(draw, n_rows):
    k = len(CACHED)
    sigma = draw(st.lists(st.floats(0.0, 50.0), min_size=k, max_size=k))
    size = draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
    local = draw(st.lists(st.integers(0, 5), min_size=k, max_size=k))
    row_labels = draw(
        st.lists(st.sampled_from(CACHED), min_size=n_rows, max_size=n_rows)
    )
    moves = draw(
        st.lists(
            st.tuples(
                st.integers(0, n_rows - 1), st.sampled_from(CACHED + UNCACHED)
            ),
            max_size=3 * n_rows,
            unique_by=lambda m: m[0],
        )
    )
    moves = [(u, t) for u, t in moves if t != row_labels[u]]
    return sigma, size, local, row_labels, moves


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_bulk_replay_matches_sequential_mirrors(lg, data):
    _check(lg, *data.draw(scenarios(lg.n_rows)))


def test_label_moved_from_and_to_in_one_stream(lg):
    k = len(CACHED)
    row_labels = [CACHED[i % 3] for i in range(lg.n_rows)]
    first_hub = lg.n_owned
    moves = [
        (0, CACHED[1]),  # a -> b
        (1, CACHED[0]),  # b -> a
        (2, UNCACHED[0]),  # c -> new
        (3, CACHED[2]),  # a -> c
        (first_hub, CACHED[0]),  # a hub row: no local-count change
    ]
    _check(
        lg,
        [0.1 * (i + 1) for i in range(k)],
        [3] * k,
        [2] * k,
        row_labels,
        moves,
    )
