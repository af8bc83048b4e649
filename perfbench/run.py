"""Pipeline benchmark: default-config ``distributed_louvain`` at p = 2.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ba-batch-thread --seed 5 --seconds 40 --trace 0

Each measured unit runs in a fresh interpreter (``perfbench/unit.py``);
units repeat until ``--seconds`` have passed (at least two, so repeats can
be compared).  Every ``distributed_louvain`` call is checked: labels cover
every vertex, the reported Q matches Q recomputed from the labels, and
labels and Q are identical across repeats.  A raise or a failed check is a
failed operation.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
(medians over the units; ``setup_s`` also over three setup-only
processes); with ``--trace 1`` one more traced unit follows
and the last line carries the per-layer ledger instead.  ``README.md``
beside this file defines every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DEADLINE_S = 170  # a whole run, traced unit included, ends within this
EXTRA_SETUPS = 3  # setup-only processes per run, on top of one per unit

import numpy  # noqa: E402

sys.path.insert(0, str(HERE))
from workloads import N_RANKS, WORKLOADS  # noqa: E402


def _unit(workload: str, seed: int, mode: str, deadline: float,
          sequential: bool = False) -> dict:
    """Run one unit in a fresh interpreter; a crash or a unit still running
    at ``deadline`` (a ``perf_counter`` value) comes back as
    ``{"error": ...}``.  The unit gets its own session so that a kill also
    reaches its rank processes."""
    cmd = [sys.executable, str(HERE / "unit.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if sequential:
        cmd.append("--sequential")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p))
    env.pop("REPRO_DEFAULT_BACKEND", None)
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(
            timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"{mode} unit still running at the {DEADLINE_S}s deadline"}
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"{mode} unit exited {proc.returncode}: {tail[0]}"}
    return json.loads(lines[-1])


def _tally(units: list[dict], n_graphs: int) -> tuple[int, int, list[str]]:
    """Attempted and failed calls over all units.  A call fails if it
    raised, failed its own check, or differs (labels or Q) from the same
    graph's call in the first unit."""
    attempted = failed = 0
    errors: list[str] = []
    reference = None
    for u in units:
        attempted += n_graphs
        calls = u.get("calls")
        if calls is None:
            failed += n_graphs
            errors.append(u["error"])
            continue
        if reference is None:
            reference = [(c["q"], c["labels"]) for c in calls]
        for i, c in enumerate(calls):
            if not c["ok"]:
                failed += 1
                errors.append(f"graph {i}: {c['error']}")
            elif (c["q"], c["labels"]) != reference[i]:
                failed += 1
                errors.append(f"graph {i}: labels or Q differ across repeats")
    return attempted, failed, errors


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    t_start = time.perf_counter()
    deadline = t_start + DEADLINE_S
    units: list[dict] = []
    while len(units) < 2 or time.perf_counter() - t_start < args.seconds:
        units.append(_unit(args.workload, args.seed, "time", deadline,
                           sequential=not units))
    setups = [_unit(args.workload, args.seed, "setup", deadline)
              for _ in range(EXTRA_SETUPS)]
    traced = _unit(args.workload, args.seed, "traced", deadline) if args.trace else None

    timed = [u for u in units if "calls" in u]
    if not timed or "seq_q" not in units[0]:
        print(f"error: {units[0].get('error', 'no unit completed')}", file=sys.stderr)
        return 1
    n_graphs = len(timed[0]["graphs"])
    attempted, failed, errors = _tally(units + ([traced] if traced else []), n_graphs)

    def median(key: str) -> float:
        return statistics.median(u[key] for u in timed)

    def batch_median(key: str) -> float:
        """Sum over the batch's graphs of each call's median over units."""
        return sum(statistics.median(per_call) for per_call in zip(*(u[key] for u in timed)))

    q = statistics.fmean(c["q"] for c in timed[0]["calls"] if c["q"] is not None)
    e2e = {
        "wall_s": batch_median("call_wall_s"),
        "cpu_s": batch_median("call_cpu_s"),
        "setup_s": statistics.median(u["setup_s"] for u in timed + setups if "setup_s" in u),
        "peak_rss_mb": median("peak_rss_mb"),
        "modularity": q,
        "q_ratio": q / units[0]["seq_q"],
    }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "backend": WORKLOADS[args.workload].backend,
        "p": N_RANKS,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "graphs": timed[0]["graphs"],
        "units": len(timed),
        "sequential_q": units[0]["seq_q"],
        "end_to_end": e2e,
    }

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if traced is None:
        section, values = spec["end_to_end"], e2e
    else:
        if "layers" not in traced:
            print(f"error: {traced['error']}", file=sys.stderr)
            return 1
        section, values = spec["per_layer"], _per_layer(traced["layers"], e2e["wall_s"])
        record["per_layer"] = values
    missing = [m["name"] for m in section if m["name"] not in values]
    if missing:
        print(f"error: no value for {missing}; {errors}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}

    for name, m in metrics.items():
        print(f"{args.workload:18s} {name:42s} {m['value']:.6g} {m['unit']}")
    for err in errors:
        print(f"FAILED: {err}")
    print("record: " + json.dumps(record))
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _per_layer(traced: dict, wall_s: float) -> dict:
    """The published per-layer metrics: the traced unit's ledger plus the
    ratios against the untraced median wall."""
    layers = {k: v for k, v in traced.items() if k != "tracing.traced_wall_s"}
    layers["sequential.speedup"] = traced["sequential.wall_s"] / wall_s
    layers["tracing.overhead_frac"] = traced["tracing.traced_wall_s"] / wall_s - 1.0
    return layers


if __name__ == "__main__":
    sys.exit(main())
