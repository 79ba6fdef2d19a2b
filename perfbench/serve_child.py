"""Run ``repro serve`` with the layer probe installed in the server process.

    python3 perfbench/serve_child.py OUT.json TRACE -- <repro serve arguments>

Installs the probe (work counts always, spans when ``TRACE`` is ``1``)
and a per-cell timer before the CLI builds the server, serves until
SIGTERM, then writes the counts, spans, job lifecycle stamps, cell
timings and this process's peak RSS to ``OUT.json``. Run from the root
of a checkout with ``PYTHONPATH=src``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    out, trace, sep, *serve_args = argv
    if sep != "--":
        raise SystemExit("usage: serve_child.py OUT.json TRACE -- <serve args>")
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from common import peak_rss_mb
    from probe import Probe

    probe = Probe(trace=trace == "1").install()
    from repro.serve import executor

    cells: list[dict[str, float]] = []
    run_batch_cell = executor.run_batch_cell

    def timed_cell(job, graph, ctx, **kwargs):
        # the server runs one job at a time (--workers 1), so the work
        # counts move only for this cell while it runs
        before = dict(probe.counts)
        t0 = time.monotonic()
        row = run_batch_cell(job, graph, ctx, **kwargs)
        t1 = time.monotonic()
        counts = {k: v - before.get(k, 0.0) for k, v in probe.counts.items()}
        cells.append(
            {
                "start": t0,
                "end": t1,
                "iterations": row["iterations"],
                "directed_edges": int(graph.indices.size),
                "counts": counts,
            }
        )
        return row

    executor.run_batch_cell = timed_cell
    from repro.cli import main as cli_main

    try:
        return cli_main(["serve", *serve_args])
    finally:
        executor.run_batch_cell = run_batch_cell
        probe.uninstall()
        doc = {
            "peak_rss_mb": peak_rss_mb(),
            "cells": cells,
            "job_events": dict(probe.job_events),
            "spans": probe.span_records(),
        }
        Path(out).write_text(json.dumps(doc))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
