"""Tests for the real-MPI transport, exercised through a duck-typed fake.

The fake (:mod:`tests.runtime.fake_mpi`) implements the lowercase mpi4py
API over in-process queues for a set of threads, so the adapter's
plumbing, accounting and API parity with the simulator are fully tested
without an MPI installation.
"""

import numpy as np
import pytest

from repro.core.heuristics import get_heuristic
from repro.core.local_clustering import LocalClustering
from repro.partition import delegate_partition
from repro.runtime import CommBase
from repro.runtime.mpi_adapter import MPIAdapter
from repro.runtime.tracing import TraceRecorder
from tests.runtime.fake_mpi import run_fake_mpi


def test_adapter_is_a_transport_only():
    """Everything but the transport primitives is inherited from CommBase."""
    assert issubclass(MPIAdapter, CommBase)
    own = {k for k in vars(MPIAdapter) if not k.startswith("__")}
    assert own <= {
        "_exchange",
        "_transport_send",
        "_transport_recv",
        "_transport_try_recv",
    }


class TestAdapterCollectives:
    def test_allreduce_and_allgather(self):
        def prog(c):
            return c.allreduce(c.rank + 1), c.allgather(c.rank * 2)

        res = run_fake_mpi(3, prog).results
        assert all(out == (6, [0, 2, 4]) for out in res)

    def test_alltoall(self):
        def prog(c):
            return c.alltoall([f"{c.rank}->{i}" for i in range(c.size)])

        res = run_fake_mpi(3, prog).results
        for r, got in enumerate(res):
            assert got == [f"{s}->{r}" for s in range(3)]

    def test_bcast_gather_scatter(self):
        def prog(c):
            b = c.bcast("root" if c.rank == 0 else None, root=0)
            g = c.gather(c.rank, root=1)
            s = c.scatter([10, 20, 30] if c.rank == 0 else None, root=0)
            c.barrier()
            return b, g, s

        res = run_fake_mpi(3, prog).results
        assert res[0] == ("root", None, 10)
        assert res[1] == ("root", [0, 1, 2], 20)
        assert res[2] == ("root", None, 30)

    def test_reduce(self):
        def prog(c):
            return c.reduce(np.arange(3) + c.rank, root=1)

        res = run_fake_mpi(3, prog).results
        assert res[0] is None and res[2] is None
        assert res[1].tolist() == [3, 6, 9]

    def test_p2p(self):
        def prog(c):
            if c.rank == 0:
                c.send({"x": 1}, dest=1)
                return None
            return c.recv(source=0)

        assert run_fake_mpi(2, prog).results[1] == {"x": 1}

    def test_irecv_polls_through_iprobe(self):
        def prog(c):
            if c.rank == 0:
                c.barrier()
                c.send("late", dest=1, tag=5)
                c.barrier()
                return None
            req = c.irecv(0, tag=5)
            before = req.test()
            c.barrier()
            c.barrier()  # rank 0 has sent by now
            after = req.test()
            return before, after, req.wait()

        before, after, waited = run_fake_mpi(2, prog).results[1]
        assert before == (False, None)
        assert after == (True, "late")
        assert waited == "late"

    def test_stats_accounted(self):
        collected = {}

        def prog(c):
            with c.phase("work"):
                c.add_compute(11)
                c.allgather(np.zeros(4))
            collected[c.rank] = c.stats
            return None

        run_fake_mpi(2, prog)
        st = collected[0]
        assert st.compute_by_phase["work"] == 11
        assert st.bytes_sent_by_phase["work"] == 32  # one 32B peer payload
        assert st.total_collectives == 1

    def test_self_send_is_not_wire_traffic(self):
        def prog(c):
            with c.phase("local"):
                c.send(np.zeros(8), dest=c.rank, tag=3)
                return c.recv(source=c.rank, tag=3).size

        res = run_fake_mpi(2, prog)
        assert res.results == [8, 8]
        for st in res.stats.ranks:
            assert st.bytes_sent_by_phase["local"] == 0
            assert st.bytes_recv_by_phase["local"] == 0
            assert st.messages_sent_by_phase["local"] == 0
            assert st.sent_to_by_phase.get("local", {}) == {}


class TestAdapterTracing:
    def test_phase_and_collective_spans(self):
        def prog(c):
            with c.phase("work"):
                c.allreduce(c.rank)
                c.alltoall([np.zeros(2) for _ in range(c.size)])
            return None

        rec = TraceRecorder()
        res = run_fake_mpi(2, prog, tracer=rec)
        spans = res.stats.spans
        for r in range(2):
            mine = [s for s in spans if s.rank == r]
            assert [s.name for s in mine if s.cat == "phase"] == ["work"]
            colls = [s for s in mine if s.cat == "collective"]
            assert [s.name for s in colls] == ["allreduce", "alltoall"]
            assert all(s.args["phase"] == "work" for s in colls)
            assert colls[1].args["bytes_sent"] == 16  # one 16B peer payload
            assert colls[1].args["bytes_recv"] == 16


class TestAdapterRunsRealAlgorithm:
    def test_local_clustering_through_adapter(self, web_graph):
        """The actual Algorithm-2 code runs unchanged over the adapter and
        reaches the same modularity as under the simulator."""
        from repro.runtime import run_spmd

        part = delegate_partition(web_graph, 3, d_high=40)

        def worker_any(comm):
            lc = LocalClustering(
                comm, part.locals[comm.rank], get_heuristic("enhanced"),
                max_inner=30,
            )
            return lc.run()

        fake = run_fake_mpi(3, worker_any).results
        sim = run_spmd(3, worker_any, timeout=60).results
        assert fake[0].q_final == pytest.approx(sim[0].q_final, abs=1e-12)
        assert fake[0].q_history == sim[0].q_history
