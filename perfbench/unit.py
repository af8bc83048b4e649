"""One repetition of a workload, in a fresh interpreter.

``run.py`` starts this script once per measured unit so that GC state and
peak RSS never carry over between repetitions.  It prints one JSON object
on its last stdout line.

Modes:

``setup``   set up only: ``import repro`` + one warm-up call on karate club.
``time``    set up (``import repro`` + one warm-up call on karate club), then
            time one unit with tracing off; ``--sequential`` also runs the
            ``sequential_louvain`` baseline afterwards.
``traced``  set up, run the unit once with a ``TraceRecorder`` per call, then
            probe the partition, runtime and sequential layers directly.

The rank programs of the process backend re-import this file as their main
module, so everything that runs work is under the ``__main__`` guard.
"""

import time

_T0 = time.perf_counter()  # setup_s starts before repro is imported

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import ledger  # noqa: E402
import repro  # noqa: E402
from repro.core.modularity import modularity  # noqa: E402
from repro.graph.generators import karate_club  # noqa: E402
from repro.runtime.tracing import TraceRecorder  # noqa: E402
from workloads import N_RANKS, WORKLOADS  # noqa: E402


def _cpu_s() -> float:
    """User + system CPU of this process and its reaped rank children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """This process's peak RSS plus the largest reaped child's (KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _check(graph, result) -> dict:
    """Correctness of one call: labels cover every vertex and the reported
    Q matches Q recomputed from the labels."""
    labels = result.assignment
    covers = labels.shape == (graph.n_vertices,) and bool((labels >= 0).all())
    q_err = abs(modularity(graph, labels) - result.modularity) if covers else float("inf")
    ok = covers and q_err <= 1e-9
    return {
        "ok": ok,
        "error": None if ok else f"labels cover={covers}, |dQ|={q_err:.3g}",
        "q": result.modularity,
        "labels": hashlib.sha256(labels.astype("int64").tobytes()).hexdigest(),
    }


def _call(graph, cfg, tracer=None) -> tuple[dict, object, float]:
    t0 = time.perf_counter()
    try:
        result = repro.distributed_louvain(graph, N_RANKS, cfg, tracer=tracer)
    except Exception as exc:  # a raising call is a failed operation
        return {"ok": False, "error": repr(exc), "q": None, "labels": None}, None, 0.0
    wall = time.perf_counter() - t0
    return _check(graph, result), result, wall


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "time", "traced"), required=True)
    ap.add_argument("--sequential", action="store_true")
    args = ap.parse_args()

    wl = WORKLOADS[args.workload]
    cfg = wl.config()
    repro.distributed_louvain(karate_club(), N_RANKS, cfg)
    out: dict = {"setup_s": time.perf_counter() - _T0}
    if args.mode == "setup":
        print(json.dumps(out))
        return

    graphs = wl.build(args.seed)
    out["graphs"] = [[g.n_vertices, g.n_edges] for g in graphs]
    gc.collect()

    if args.mode == "time":
        calls, out["call_cpu_s"] = [], []
        for g in graphs:
            cpu0 = _cpu_s()
            calls.append(_call(g, cfg))
            out["call_cpu_s"].append(_cpu_s() - cpu0)
        out["call_wall_s"] = [wall for _, _, wall in calls]
        out["peak_rss_mb"] = _peak_rss_mb()
        if args.sequential:
            _, out["seq_q"] = ledger.sequential_probe(graphs)
    else:
        calls = [_call(g, cfg, tracer=TraceRecorder()) for g in graphs]
        runtime = ledger.runtime_probe(wl.backend, N_RANKS)
        layers = dict(runtime)
        if all(r is not None for _, r, _ in calls):
            layers.update(
                ledger.traced_layers(
                    [(r, w) for _, r, w in calls], runtime["runtime.startup_s"]
                )
            )
        layers.update(ledger.partition_probe(graphs, N_RANKS))
        seq_layers, out["seq_q"] = ledger.sequential_probe(graphs)
        layers.update(seq_layers)
        out["layers"] = layers
    out["calls"] = [c for c, _, _ in calls]
    print(json.dumps(out))


if __name__ == "__main__":
    main()
