"""A duck-typed fake mpi4py communicator for testing :class:`MPIAdapter`.

The fake implements the lowercase mpi4py API the adapter uses over
in-process queues for a set of threads, so the adapter — the third
:class:`~repro.runtime.commbase.CommBase` transport — runs in the same
conformance suites as the thread and process backends without an MPI
installation.  Like real MPI it verifies no op tags: mismatched collectives
are undefined behaviour.
"""

import threading

from repro.runtime.engine import SPMDError, SPMDResult
from repro.runtime.mpi_adapter import MPIAdapter
from repro.runtime.stats import RankStats, RunStats

TIMEOUT = 30.0


class _FakeWorld:
    """Shared state for FakeMPIComm instances (barrier + slot exchange)."""

    def __init__(self, size):
        self.size = size
        self.barrier = threading.Barrier(size)
        self.slots = {}
        self.lock = threading.Lock()
        self.mail = {}
        self.mail_cv = threading.Condition()
        self.gen = [0] * size


class FakeMPIComm:
    """Duck-typed mpi4py communicator backed by threads."""

    def __init__(self, world, rank):
        self._w = world
        self._rank = rank

    def Get_rank(self):
        return self._rank

    def Get_size(self):
        return self._w.size

    # -- transport helpers ------------------------------------------------
    def _exchange(self, value):
        w = self._w
        gen = w.gen[self._rank]
        w.gen[self._rank] += 1
        with w.lock:
            buf = w.slots.setdefault(gen, [None] * w.size)
        buf[self._rank] = value
        w.barrier.wait(timeout=TIMEOUT)
        out = list(buf)
        with w.lock:
            key = (gen, "reads")
            n = w.slots.get(key, 0) + 1
            if n == w.size:
                w.slots.pop(gen, None)
                w.slots.pop(key, None)
            else:
                w.slots[key] = n
        return out

    # -- lowercase mpi4py API ----------------------------------------------
    def send(self, obj, dest, tag=0):
        with self._w.mail_cv:
            self._w.mail.setdefault((self._rank, dest, tag), []).append(obj)
            self._w.mail_cv.notify_all()

    def recv(self, source, tag=0):
        key = (source, self._rank, tag)
        with self._w.mail_cv:
            if not self._w.mail_cv.wait_for(
                lambda: self._w.mail.get(key), timeout=TIMEOUT
            ):
                raise TimeoutError(f"fake recv(source={source}, tag={tag})")
            box = self._w.mail[key]
            out = box.pop(0)
            if not box:
                del self._w.mail[key]
            return out

    def iprobe(self, source, tag=0):
        with self._w.mail_cv:
            return bool(self._w.mail.get((source, self._rank, tag)))

    def allgather(self, value):
        return self._exchange(value)

    def alltoall(self, values):
        rows = self._exchange(list(values))
        return [rows[src][self._rank] for src in range(self._w.size)]


def run_fake_mpi(p, fn, *args, tracer=None):
    """``run_spmd`` over ``MPIAdapter(FakeMPIComm)``: same return type, same
    trailing-superstep flush and primary-error surfacing."""
    world = _FakeWorld(p)
    rank_stats = [RankStats(rank=r) for r in range(p)]
    results = [None] * p
    errors = [None] * p

    def worker(r):
        rank_tracer = tracer.rank(r) if tracer is not None else None
        comm = MPIAdapter(FakeMPIComm(world, r), rank_stats[r], tracer=rank_tracer)
        try:
            results[r] = fn(comm, *args)
        except BaseException as exc:  # noqa: BLE001
            errors[r] = exc
            world.barrier.abort()
        finally:
            rank_stats[r].flush()

    threads = [threading.Thread(target=worker, args=(r,)) for r in range(p)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for r, exc in enumerate(errors):
        if exc is not None and not isinstance(exc, threading.BrokenBarrierError):
            raise SPMDError(r, exc) from exc
    stats = RunStats(ranks=rank_stats)
    if tracer is not None:
        stats.spans = tracer.span_records()
    return SPMDResult(results=results, stats=stats)
