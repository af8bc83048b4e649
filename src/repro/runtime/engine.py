"""SPMD engine: run one function on ``p`` ranks.

:func:`run_spmd` is the one entry point.  It validates the request, binds
the fault injector, surfaces errors and assembles :class:`RunStats`; the
launching itself is looked up by name in one table:

* ``"thread"`` (default) — one daemon thread per rank in this interpreter,
  communicating through the in-process :class:`~repro.runtime.comm._World`;
* ``"process"`` — one spawned interpreter per rank with shared-memory graph
  segments and pipe-routed messaging
  (:func:`repro.runtime.process_backend.run_processes`), for true
  multi-core execution.

Both produce identical results, byte accounting and failure semantics; the
cross-backend conformance suite pins the equivalence.  The third
:class:`~repro.runtime.commbase.CommBase` transport,
:class:`~repro.runtime.mpi_adapter.MPIAdapter`, is not in the table: MPI
programs are started by ``mpirun``, not launched from Python.
"""

from __future__ import annotations

import os
import threading
import warnings
from dataclasses import dataclass
from typing import Any, Callable

from repro.runtime.comm import DeadlockError, SimComm, _World
from repro.runtime.process_backend import ProgramNotPicklableError, run_processes
from repro.runtime.stats import RankStats, RunStats

__all__ = ["run_spmd", "SPMDError", "SPMDResult", "resolve_backend"]


def _run_threads(
    n_ranks: int,
    fn: Callable[..., Any],
    args: tuple,
    kwargs: dict,
    *,
    timeout: float,
    injector: Any,
    checksums: bool,
    tracer: Any,
) -> tuple[list[Any], list[BaseException | None], list[RankStats]]:
    """The ``"thread"`` launcher: one daemon thread per rank, all sharing
    one in-process :class:`_World`.  Returns ``(results, errors,
    rank_stats)``."""
    world = _World(n_ranks, timeout=timeout, injector=injector, checksums=checksums)
    rank_stats = [RankStats(rank=r) for r in range(n_ranks)]
    results: list[Any] = [None] * n_ranks
    errors: list[BaseException | None] = [None] * n_ranks

    def worker(rank: int) -> None:
        rank_tracer = tracer.rank(rank) if tracer is not None else None
        comm = SimComm(world, rank, rank_stats[rank], tracer=rank_tracer)
        try:
            results[rank] = fn(comm, *args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - must not leak threads
            errors[rank] = exc
            world.abort()
        finally:
            # flush trailing activity (work after the rank's last
            # collective) so the superstep log agrees with the per-phase
            # totals — also on failure, for post-mortem traces
            rank_stats[rank].flush()

    threads = [
        threading.Thread(target=worker, args=(r,), name=f"simrank-{r}", daemon=True)
        for r in range(n_ranks)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results, errors, rank_stats


# backend name -> launcher; every launcher takes
# ``(n_ranks, fn, args, kwargs, *, timeout, injector, checksums, tracer)``
_LAUNCHERS = {"thread": _run_threads, "process": run_processes}
BACKENDS = tuple(_LAUNCHERS)


def resolve_backend(backend: str | None) -> tuple[str, bool]:
    """Resolve a backend request to a concrete backend name.

    ``None``/``"auto"`` defer to the ``REPRO_DEFAULT_BACKEND`` environment
    variable (default ``"thread"``).  Returns ``(name, explicit)`` where
    ``explicit`` is False when the choice came from the environment — an
    environment-selected process backend falls back to threads for programs
    that cannot be pickled, instead of erroring.
    """
    if backend in (None, "auto"):
        name = os.environ.get("REPRO_DEFAULT_BACKEND", "thread") or "thread"
        explicit = False
    else:
        name = backend
        explicit = True
    if name not in BACKENDS:
        raise ValueError(
            f"unknown SPMD backend {name!r}; expected one of {BACKENDS}"
        )
    return name, explicit


class SPMDError(RuntimeError):
    """A simulated rank raised; carries the failing rank and original error."""

    def __init__(self, rank: int, original: BaseException) -> None:
        super().__init__(f"rank {rank} failed: {original!r}")
        self.rank = rank
        self.original = original


@dataclass
class SPMDResult:
    """Return values and measured statistics of one SPMD run."""

    results: list[Any]
    stats: RunStats


def run_spmd(
    n_ranks: int,
    fn: Callable[..., Any],
    *args: Any,
    timeout: float = 120.0,
    faults: Any = None,
    checksums: bool = False,
    tracer: Any = None,
    backend: str | None = None,
    **kwargs: Any,
) -> SPMDResult:
    """Run ``fn(comm, *args, **kwargs)`` on ``n_ranks`` simulated ranks.

    Parameters
    ----------
    n_ranks:
        Number of simulated MPI ranks (threads or processes).
    fn:
        The SPMD program.  Its first positional argument is the rank's
        communicator (:class:`~repro.runtime.comm.SimComm` on the thread
        backend, a contract-identical
        :class:`~repro.runtime.process_backend.ProcComm` on the process
        backend).  Must be picklable (module-level) for the process
        backend.
    backend:
        ``"thread"`` | ``"process"`` | ``"auto"``/``None`` (defer to
        ``REPRO_DEFAULT_BACKEND``, default thread).  The process backend
        runs each rank in its own spawned interpreter for true multi-core
        execution; results, byte accounting and failure semantics are
        identical across backends.  There is no ``"mpi"`` backend: wrap
        ``MPI.COMM_WORLD`` in :class:`~repro.runtime.mpi_adapter.MPIAdapter`
        under ``mpirun`` instead.
    timeout:
        Per-blocking-operation deadlock timeout in seconds.
    faults:
        Optional :class:`~repro.runtime.faults.FaultPlan` (or a live
        :class:`~repro.runtime.faults.FaultInjector`, e.g. one carried
        across retries by a recovery supervisor) scheduling deterministic
        rank crashes, stragglers, and p2p message faults.
    checksums:
        Verify a CRC32 of every point-to-point payload at ``recv``;
        corruption raises :class:`~repro.runtime.comm.CorruptionError`.
    tracer:
        Optional :class:`~repro.runtime.tracing.TraceRecorder`; every rank
        then emits span/instant events for phases, collectives and p2p
        traffic, and the run's completed spans are attached to
        ``result.stats.spans``.  ``None`` (default) traces nothing and adds
        no measurable overhead.

    Returns
    -------
    SPMDResult
        ``results[r]`` is rank ``r``'s return value; ``stats`` holds the
        measured per-rank counters.

    Raises
    ------
    SPMDError
        If any rank raises, the lowest-numbered rank that failed on its own
        (not merely aborted by another rank's failure) is re-raised
        (wrapped), after the world is aborted so no rank leaks.
    """
    if n_ranks < 1:
        raise ValueError("n_ranks must be >= 1")
    resolved, explicit = resolve_backend(backend)
    injector = None
    if faults is not None:
        from repro.runtime.faults import FaultInjector

        injector = (
            faults if isinstance(faults, FaultInjector) else FaultInjector(faults)
        )
        injector.bind(n_ranks)
    launch = dict(
        timeout=timeout, injector=injector, checksums=checksums, tracer=tracer
    )
    try:
        results, errors, rank_stats = _LAUNCHERS[resolved](
            n_ranks, fn, args, kwargs, **launch
        )
    except ProgramNotPicklableError:
        if explicit:
            raise
        # REPRO_DEFAULT_BACKEND=process is a blanket preference; local
        # closures (common in tests) can only run on threads
        warnings.warn(
            "REPRO_DEFAULT_BACKEND=process but the SPMD program is not "
            "picklable; falling back to the thread backend",
            RuntimeWarning,
            stacklevel=2,
        )
        results, errors, rank_stats = _run_threads(
            n_ranks, fn, args, kwargs, **launch
        )

    # the lowest-numbered rank that failed on its own outranks the ranks
    # its failure merely aborted (broken barriers, released receives)
    failed = [(rank, exc) for rank, exc in enumerate(errors) if exc is not None]
    secondary = (threading.BrokenBarrierError, DeadlockError)
    if failed:
        rank, exc = next(
            (f for f in failed if not isinstance(f[1], secondary)), failed[0]
        )
        raise SPMDError(rank, exc) from exc
    stats = RunStats(ranks=rank_stats)
    if tracer is not None:
        stats.spans = tracer.span_records()
    return SPMDResult(results=results, stats=stats)
