"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark once per seed on one workload and prints, for every
end-to-end metric, the median of its values and the distance between
the first and third quartile as a share of that median, next to the
metric's bound from ``BENCHMARK.json``::

    python3 perfbench/spread.py --workload grid-scenarios --seeds 1 2 3 4 5

Distinct seeds mix the host's noise with differences in content work
between seeds; one seed given several times (``--seeds 7 7 7 7 7``)
measures the host's noise alone.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    command = [sys.executable if c == "python3" else c for c in spec["command"]]

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        start = time.perf_counter()
        done = subprocess.run(
            command + [
                "--workload", args.workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        record = json.loads(done.stdout.strip().splitlines()[-1])
        if not record["correct"]:
            print(f"seed {seed}: outputs NOT correct", file=sys.stderr)
        for name, metric in record["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed} ({time.perf_counter() - start:.0f} s): " + json.dumps(
            {name: round(m["value"], 4) for name, m in record["metrics"].items()}
        ), flush=True)

    for metric in spec["end_to_end"]:
        series = values[metric["name"]]
        middle = statistics.median(series)
        if len(series) >= 2:
            q1, _q2, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / middle if middle else float("inf")
        else:
            spread = 0.0
        print(
            f"{args.workload} {metric['name']}: median {middle:.6g} "
            f"spread {spread:.3f} bound {metric['bound']}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
