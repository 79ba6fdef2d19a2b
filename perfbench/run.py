"""Benchmark entry point: one workload, one seed, one JSON line at the end.

Run from the root of a checkout::

    python3 perfbench/run.py --workload batch-skewed --seed 1 --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics with only work counters
installed; ``--trace 1`` repeats that measurement and then a traced one,
and reports the per-layer metrics. The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the full report,
including the environment block and output digest, goes to
``perfbench/out/<workload>.trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path

WORKLOADS = ("batch-skewed", "files-sweep", "serve-closed")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="input sizes; 'tiny' is for the benchmark's own tests",
    )
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources at {root / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    from common import emit, make_hermetic

    make_hermetic()
    import repro

    if Path(repro.__file__).resolve().parent != (root / "src" / "repro").resolve():
        print(f"imported repro from {repro.__file__}, not this checkout", file=sys.stderr)
        return 2

    # turn SIGTERM into SystemExit so that ``finally`` blocks stop the
    # server child and remove temporary files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    trace = bool(args.trace)
    if args.workload == "serve-closed":
        from serve import serve_closed

        outcome = serve_closed(args.seed, args.seconds, trace, args.size)
    else:
        import inproc

        fn = inproc.batch_skewed if args.workload == "batch-skewed" else inproc.files_sweep
        outcome = fn(args.seed, args.seconds, trace, args.size)
    metrics, correct, attempted, failed, details, problems = outcome
    emit(
        workload=args.workload,
        seed=args.seed,
        trace=trace,
        metrics=metrics,
        correct=correct,
        attempted=attempted,
        failed=failed,
        details=details,
        problems=problems,
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
