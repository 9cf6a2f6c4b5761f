"""End-to-end benchmark of the AutoFL reproduction.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload fleet-10k-autofl --seed 0 --seconds 8 --trace 0

Prints every metric by name with its unit, then, as the last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``). A run record with provenance is
written under ``e2ebench/out/``; traced runs also write their spans there, both as
JSONL (``python -m repro trace --spans FILE``) and as a Chrome trace.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--scale",
        choices=("full", "tiny"),
        default="full",
        help="tiny shrinks fleets and job counts so the benchmark's own tests run fast",
    )
    parser.add_argument("--out", type=Path, default=BENCH_DIR / "out")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench

    if args.workload not in bench.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; choose from {sorted(bench.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    result = bench.run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.scale == "tiny", args.out
    )
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
