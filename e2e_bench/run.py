"""Repository benchmark: one command per run, all metrics host-normalised.

Usage (from the repository root)::

    python3 e2e_bench/run.py --workload insert-bulk-16k --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
fuller record (raw and normalised samples, host-reference timings,
provenance) is written to ``e2e_bench/results/``.  See ``e2e_bench/README.md``.
"""

from __future__ import annotations

import os

# BLAS and OpenMP read these once, when numpy is first imported.
THREAD_PINS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                      "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                      "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"

#: Every workload runs on one fixed graph and one fixed write stream; the
#: seed drives the reads and the benchmark's own estimator only.  Random vias
#: change factorisation fill, and the stream alone moved the κ guard's work
#: 2x (churn-guard-2k), the final κ ratio 1.2-2.2x (insert-bulk-16k) and
#: 1.8-9.5x (serve-mixed-4k) across five seeds: no admissible bound holds
#: a metric whose input changes that much from run to run.
GRAPH_SEED = 12345
STREAM_SEED = 1

#: End-to-end metric units, as BENCHMARK.json declares them.
E2E_UNITS = {
    "setup_s": "s",
    "update_events_per_s": "1/s",
    "batch_p50_ms": "ms",
    "batch_p90_ms": "ms",
    "read_p50_ms": "ms",
    "read_p99_ms": "ms",
    "write_p50_ms": "ms",
    "kappa_ratio": "ratio",
    "offtree_density": "ratio",
    "success_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def provenance(args) -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "thread_pins": {name: os.environ.get(name) for name in THREAD_PINS},
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "inject": args.inject,
    }


# --------------------------------------------------------------------------- #
# In-process stream workloads: insert-bulk-16k and churn-guard-2k
# --------------------------------------------------------------------------- #
STREAM_WORKLOADS = {
    # Table I/II protocol at 16k nodes: default config, insertion-only
    # stream.  It is generated as 10 batches and each is split into 10
    # (all events are insertions, so order and validity are kept): the
    # generator costs 1.5 s that way against 6.2 s for 100 batches.
    "insert-bulk-16k": dict(side=128, events=100_000, gen_batches=10, split=10,
                            deletion_fraction=0.0, protect_spanning_tree=False, config={},
                            setups=2, reads=120, read_every=10, pinned_reads=True),
    # Fully dynamic path with the κ guard, 40% deletions, spanning tree kept.
    "churn-guard-2k": dict(side=48, events=3_000, gen_batches=30, split=1,
                           deletion_fraction=0.4, protect_spanning_tree=True,
                           config={"kappa_guard_factor": 1.8}, setups=3, reads=100,
                           read_every=3, pinned_reads=False),
}


def _read_phase(driver, n: int, rng, host, reads: int) -> list:
    """In-process reads against a fresh snapshot, as a library user issues
    them: three 16-pair resistance lookups to one PCG solve, the mix of
    ``serve-mixed-4k``.  The first read also pays the snapshot capture.

    Reads last milliseconds, so they run back to back between two bursts of
    kernels and no kernel's own work sits between two reads.
    """
    snapshot = []

    def current():
        if not snapshot:
            snapshot.append(driver.snapshot())
        return snapshot[0]

    for _ in range(5):
        host.measure()
    samples = []
    for index in range(reads):
        if index % 4 != 3:
            us = rng.integers(0, n, 16)
            vs = (us + rng.integers(1, n, 16)) % n
            pairs = list(zip(us.tolist(), vs.tolist()))
            query = lambda: current().effective_resistance_many(pairs)  # noqa: E731
            check = lambda out: len(out) == 16 and all(v > 0 for v in out)  # noqa: E731
        else:
            b = rng.standard_normal(n)
            b -= b.mean()
            query = lambda: current().solve(b)  # noqa: E731
            check = lambda out: bool(out.converged)  # noqa: E731
        begin = time.perf_counter()
        try:
            out = query()
            ok = check(out)
        except Exception as exc:  # a failed read is counted, not fatal
            print(f"read failed: {exc!r}", file=sys.stderr)
            ok = False
        end = time.perf_counter()
        samples.append({"start": begin, "end": end, "raw_s": end - begin, "ok": ok})
    for _ in range(5):
        host.measure()
    return samples


def run_stream_workload(args, spec: dict, tracer, host) -> dict:
    """Set up ``spec["setups"]`` times, then apply the whole stream and read."""
    import numpy as np

    from repro.api import (InGrassConfig, MixedBatch, Sparsifier, grid_circuit_2d,
                           simulate_event_stream)

    import checks

    graph = grid_circuit_2d(spec["side"], seed=GRAPH_SEED)
    generated = simulate_event_stream(graph, spec["events"], spec["gen_batches"],
                                      deletion_fraction=spec["deletion_fraction"],
                                      protect_spanning_tree=spec["protect_spanning_tree"],
                                      seed=STREAM_SEED)
    batches = generated if spec["split"] == 1 else [
        MixedBatch(insertions=batch.insertions[i:i + size])
        for batch in generated
        for size in [-(-len(batch.insertions) // spec["split"])]
        for i in range(0, len(batch.insertions), size)]
    config = InGrassConfig(**spec["config"])
    n = graph.num_nodes
    rng = np.random.default_rng(args.seed)

    setups, writes = [], []
    driver = reader = None
    host.measure()
    for _ in range(spec["setups"]):
        driver = None  # release the previous setup's state first
        driver = Sparsifier(config)
        # A setup lasts seconds: five kernels each side steady its reference.
        setups.append(host.timed(driver.setup, graph, bracket=5)[1])
        if spec["pinned_reads"] and reader is None:
            reader = driver  # kept at its setup epoch; the stream goes to the last
    if reader is None:
        reader = driver
    h0 = checks.edge_arrays(driver.sparsifier)
    # Reads run in chunks spread over the stream (every ``read_every``
    # batches), so their median pools many host phases: one chunk of
    # millisecond reads sits in a single phase, and the read median then
    # spread 27% over ten runs on churn-guard-2k and up to 28% on
    # insert-bulk-16k.  insert-bulk-16k reads against the first setup's
    # driver, which no batch reaches: on its grown sparsifier one read pays
    # a factorisation that ran over 60 s.
    every = spec["read_every"]
    chunk = spec["reads"] * every // len(batches)
    reads = []
    for index, batch in enumerate(batches, 1):
        span = tracer.begin("bench.write") if tracer.record else -1
        try:
            sample = host.timed(driver.update, batch)[1]
            sample["ok"] = True
        except Exception as exc:  # a failed batch is counted, not fatal
            print(f"batch failed: {exc!r}", file=sys.stderr)
            sample = {"ok": False}
        if tracer.record:
            tracer.end(span)
        sample["events"] = batch.num_events
        writes.append(sample)
        if not sample["ok"]:
            break
        if index % every == 0:
            reads += _read_phase(reader, n, rng, host, chunk)
    peak_rss = _peak_rss_mb()
    maintenance = vars(driver.maintenance_stats) if driver.maintainer is not None else {}
    tracer.uninstall()

    target = driver.target_condition_number
    g_final, h_final = checks.edge_arrays(driver.graph), checks.edge_arrays(driver.sparsifier)
    kappa = checks.KappaEstimator(n, h0)
    kappa0 = kappa(checks.edge_arrays(graph), h0, seed=args.seed)
    kappa_final = kappa(g_final, h_final, seed=args.seed + 1)
    results = checks.sparsifier_checks(n, g_final, h_final)
    results["kappa_estimator_agrees"] = checks.kappa_agrees(kappa0, target)
    checked = checks.check_list(results)

    host.normalise(setups + writes + reads)
    ops = setups + writes + reads
    attempted = len(ops) + len(checked)
    failed = (sum(not s.get("ok", True) for s in ops) + sum(not c["ok"] for c in checked))
    write_s = [s["norm_s"] for s in writes if s["ok"]]
    read_s = [s["norm_s"] for s in reads if s["ok"]]
    metrics = {
        "setup_s": statistics.median(s["norm_s"] for s in setups),
        "update_events_per_s": sum(s["events"] for s in writes if s["ok"]) / sum(write_s),
        "batch_p50_ms": 1e3 * float(np.percentile(write_s, 50)),
        "batch_p90_ms": 1e3 * float(np.percentile(write_s, 90)),
        "read_p50_ms": 1e3 * float(np.percentile(read_s, 50)),
        "read_p99_ms": 1e3 * float(np.percentile(read_s, 99)),
        # In process, one write is one driver.update call.
        "write_p50_ms": 1e3 * float(np.percentile(write_s, 50)),
        "kappa_ratio": kappa_final / kappa0,
        "offtree_density": checks.offtree_density(n, h_final),
        "success_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": peak_rss,
    }
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "checks": checked,
        "layer_inputs": {"epochs": len(setups) + len(batches), "maintenance": maintenance,
                         "write_root": "bench.write", "lateness_ms": []},
        "samples": {"setup": setups, "writes": writes, "reads": reads},
        "kappa": {"estimate_g0_h0": kappa0, "program_target": target,
                  "estimate_final": kappa_final},
    }


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
WORKLOADS = ("insert-bulk-16k", "churn-guard-2k", "serve-mixed-4k")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", default=None, metavar="LAYER:FRACTION",
                        help="stretch every call of one layer by FRACTION of its "
                             "duration (detection-power check; off by default)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.inject is not None:
        layer, _, fraction = args.inject.partition(":")
        try:
            args.inject_spec = (layer, float(fraction))
        except ValueError:
            parser.error("--inject takes LAYER:FRACTION, e.g. core.guard:0.3")
    else:
        args.inject_spec = None
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    sys.path.insert(0, str(BENCH_DIR))

    from hostref import REFERENCE_MS, HostReference
    from spans import (INJECTABLE, PER_LAYER_UNITS, Tracer, layer_metrics, percentile,
                       unattributed_share)

    if args.inject_spec and args.inject_spec[0] not in INJECTABLE:
        print(f"error: --inject layer must be one of {', '.join(INJECTABLE)}", file=sys.stderr)
        return 2

    host = HostReference()
    tracer = Tracer(record=bool(args.trace), inject=args.inject_spec)
    wall = time.perf_counter()
    if args.workload == "serve-mixed-4k":
        import serve

        outcome = serve.run(args, host, GRAPH_SEED, STREAM_SEED)
    else:
        if tracer.record or tracer.inject:
            tracer.install()
        outcome = run_stream_workload(args, STREAM_WORKLOADS[args.workload], tracer, host)
    wall = time.perf_counter() - wall

    scale = host.run_factor()
    if args.trace:
        inputs = outcome["layer_inputs"]
        child = outcome.get("child_layers")
        if child is not None:
            values = child
        else:
            values = layer_metrics(tracer, scale=scale, epochs=inputs["epochs"],
                                   maintenance=inputs["maintenance"])
            values["bench.unattributed_write_share"] = unattributed_share(
                tracer, inputs["write_root"])
            values["server.overhead_ms"] = 0.0
            values["server.queue_depth_max"] = 0.0
        values["bench.send_lateness_p99_ms"] = percentile(inputs["lateness_ms"], 99)
        values["bench.host_ref_ms"] = host.median_ms()
        metrics = {name: {"value": float(values[name]), "unit": unit}
                   for name, (unit, _) in PER_LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": float(value), "unit": E2E_UNITS[name]}
                   for name, value in outcome["metrics"].items()}
    failed = int(outcome["failed"])
    for entry in metrics.values():
        if not math.isfinite(entry["value"]):  # only when an output check failed
            entry["value"] = 0.0
            failed += 1

    record = {
        "provenance": provenance(args),
        "wall_s": wall,
        "host_reference": {"reference_ms": REFERENCE_MS, "samples": host.samples},
        "end_to_end": outcome["metrics"],
        **{key: value for key, value in outcome.items()
           if key not in ("metrics", "child_layers")},
    }
    results_dir = BENCH_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    suffix = f"-inject-{args.inject}" if args.inject else ""
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.json".replace(":", "_")
    (results_dir / name).write_text(json.dumps(record, indent=1, default=float))

    print(json.dumps({"correct": failed == 0, "attempted": int(outcome["attempted"]),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
