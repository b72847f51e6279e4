"""Server side of ``serve-mixed-4k``: set up a service and serve it over HTTP.

Started by :mod:`serve` as a child process.  It prints exactly two JSON
lines on standard output: one when the service is set up (setup timings,
the program's κ target and the port it will bind), and one after a
``POST /shutdown`` has stopped the server (peak RSS and, when traced, the
spans this process recorded).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import socket
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--side", type=int, required=True)
    parser.add_argument("--graph-seed", type=int, required=True)
    parser.add_argument("--setups", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--inject", default=None)
    args = parser.parse_args()

    from hostref import HostReference
    from spans import Tracer, layer_metrics, unattributed_share

    from repro.api import InGrassConfig, ServerConfig, SparsifierService, grid_circuit_2d, serve

    host = HostReference()
    inject = None
    if args.inject:
        layer, _, fraction = args.inject.partition(":")
        inject = (layer, float(fraction))
    tracer = Tracer(record=bool(args.trace), inject=inject)
    if tracer.record or tracer.inject:
        tracer.install()

    graph = grid_circuit_2d(args.side, seed=args.graph_seed)
    service = SparsifierService(InGrassConfig())
    setups = [host.timed(service.setup, graph, bracket=5)[1] for _ in range(args.setups)]
    host.normalise(setups)
    serving_from = len(tracer.spans)
    port = _free_port()
    print(json.dumps({"port": port, "setups": setups, "pid": os.getpid(),
                      "target_kappa": service.driver.target_condition_number}), flush=True)

    serve(service, ServerConfig(port=port, request_timeout=60.0))

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    final = {"peak_rss_mb": peak_rss_mb, "host_ref_samples": host.samples}
    if tracer.record:
        tracer.uninstall()
        scale = host.run_factor()
        stats = service.driver.maintenance_stats
        final["layers"] = layer_metrics(tracer, scale=scale,
                                        epochs=args.setups + service.applied_batches,
                                        maintenance=vars(stats))
        final["layers"]["bench.unattributed_write_share"] = unattributed_share(
            tracer, "service.apply")
        # Request-handling spans (roots after setup) for the server-overhead
        # split: what the client waited minus what the service layers took.
        handled = [span for span in tracer.spans[serving_from:]
                   if span[3] < 0 and span[2] is not None
                   and span[0] in ("service.apply", "service.snapshot", "snapshot.query")]
        final["handled_span_s"] = sum(span[2] - span[1] for span in handled)
    print(json.dumps(final, default=float), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
