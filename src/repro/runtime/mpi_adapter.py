"""The real-MPI transport: run the SPMD algorithm code on an mpi4py communicator.

:class:`MPIAdapter` is the third :class:`~repro.runtime.commbase.CommBase`
transport, next to the thread and process backends: it maps the transport
primitives onto the lowercase (pickle-based) mpi4py API and inherits
everything else — phase tagging, byte/message accounting, tracing and every
collective — so the identical worker functions run unchanged on a cluster,
started by ``mpirun`` rather than by ``run_spmd``, and report the same
counters as the simulator::

    from mpi4py import MPI
    from repro.runtime.mpi_adapter import MPIAdapter
    ...
    comm = MPIAdapter(MPI.COMM_WORLD)
    LocalClustering(comm, my_local_graph, heuristic).run()

It is duck-typed: anything exposing ``Get_rank/Get_size/send/recv/iprobe/
allgather/alltoall`` works, which is how the test suite exercises it
without an MPI installation.
"""

from __future__ import annotations

from typing import Any

from repro.runtime.commbase import CommBase
from repro.runtime.stats import RankStats

__all__ = ["MPIAdapter"]


class MPIAdapter(CommBase):
    """:class:`CommBase` transport over an mpi4py-style communicator.

    Every collective is one native ``allgather``, except ``alltoall``, which
    stays a native ``alltoall`` so wire volume does not grow ``p``-fold.
    Mismatched collectives are undefined behaviour under real MPI, so op
    tags are not verified, and the ``recv`` timeout is not enforced.  There
    is no fault injector: ``fault_event`` is a no-op.
    """

    def __init__(self, mpi_comm, stats: RankStats | None = None, tracer=None) -> None:
        rank = int(mpi_comm.Get_rank())
        super().__init__(
            rank,
            int(mpi_comm.Get_size()),
            stats if stats is not None else RankStats(rank=rank),
            tracer=tracer,
        )
        self._mpi = mpi_comm

    # -- transport primitives -------------------------------------------
    def _exchange(self, gen: int, value: Any, op: str) -> list[Any]:
        if op == "alltoall":
            return list(self._mpi.alltoall(value))
        return list(self._mpi.allgather(value))

    def _transport_send(self, dest: int, tag: int, obj: Any) -> None:
        self._mpi.send(obj, dest=dest, tag=tag)

    def _transport_recv(self, source: int, tag: int, timeout: float) -> Any:
        return self._mpi.recv(source=source, tag=tag)

    def _transport_try_recv(self, source: int, tag: int) -> tuple[bool, Any]:
        if not self._mpi.iprobe(source=source, tag=tag):
            return False, None
        return True, self._mpi.recv(source=source, tag=tag)
