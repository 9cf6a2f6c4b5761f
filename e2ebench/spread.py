"""Run-to-run spread of the end-to-end metrics over several seeds.

Runs ``run.py`` once per seed on one workload, untraced, and prints for every
end-to-end metric its median and its quartile spread (the distance between the first
and third quartile as ``statistics.quantiles(values, n=4)`` gives them, as a share of
the median) next to the bound ``BENCHMARK.json`` fixes for it, and the wall time of
the runs::

    python3 e2ebench/spread.py --workload service-drain --seeds 0-9
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-4"))
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    args = parser.parse_args()
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or config["run_seconds"]
    values: dict[str, list[float]] = {}
    walls: list[float] = []
    for seed in args.seeds:
        start = time.perf_counter()
        out = subprocess.run(
            [*config["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
        )
        walls.append(time.perf_counter() - start)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: INCORRECT\n{out.stdout}", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed} ({walls[-1]:.1f} s): " + ", ".join(
            f"{name}={metric['value']:.4g}" for name, metric in sorted(result["metrics"].items())
        ), flush=True)
    for metric in config["end_to_end"]:
        series = values[metric["name"]]
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median
        print(
            f"{metric['name']:<20} median {median:12.4f} {metric['unit']:<5} "
            f"spread {spread:6.3f}  bound {metric['bound']:.3f}  "
            f"{'ok' if spread < metric['bound'] / 3 else 'WIDE'}"
        )
    print(f"run wall time: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
