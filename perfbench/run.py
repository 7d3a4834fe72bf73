"""The repository's end-to-end benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload simulate-foreman --seed 1 \\
        --seconds 40 --trace 0

``--trace 0`` measures with layer timing off and prints the end-to-end
metrics; ``--trace 1`` adds a layer-timing pass and prints the per-layer
metrics instead.  Metric names, units and bounds live in
``BENCHMARK.json`` at the checkout root.  Every run checks its outputs
(digests, and exact counts at the default seed) and prints, as its last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A copy of the result, and on ``--trace 1`` the spans, is
written under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOADS = ("simulate-foreman", "grid-scenarios", "service-open")


def _load_api():
    """Import ``repro.api`` from this checkout's sources, nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from repro import api

    if Path(api.__file__).resolve().parents[1] != SRC:
        raise SystemExit(f"benchmark: imported repro from {api.__file__}")
    return api


def _load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SystemExit(f"benchmark: missing {path}")
    return json.loads(path.read_text(encoding="utf-8"))


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="tiny inputs for the smoke test (no recorded-output checks)",
    )
    return parser.parse_args(argv)


def _exit_on_term(signum, _frame) -> None:
    # Unwinding runs every ``with`` block, which stops the daemons.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_term)
    args = _parse(argv)
    spec = _load_spec()
    api = _load_api()
    sys.path.insert(0, str(HERE))
    from common import Context, load_expected
    from hostspeed import HostClock

    import grid_scenarios
    import service_open
    import simulate_foreman

    modules = {
        "simulate-foreman": simulate_foreman,
        "grid-scenarios": grid_scenarios,
        "service-open": service_open,
    }
    module = modules[args.workload]
    # A workload on one CPU runs pinned to it, so the host-speed clock
    # samples the CPU the work runs on; one that keeps every CPU busy
    # reports wall seconds.
    cpus = tuple(sorted(os.sched_getaffinity(0)))
    if module.PINNED:
        os.sched_setaffinity(0, {cpus[-1]})
    clock = HostClock(convert=module.PINNED)
    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ctx = Context(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        tiny=args.tiny,
        workdir=workdir,
        expected=load_expected(args.workload),
        clock=clock,
        cpus=cpus,
    )
    try:
        metrics, details = module.run(api, ctx)
    finally:
        # Scratch (queues, caches, traces) goes; the results stay.
        for child in workdir.iterdir():
            if child.is_dir():
                shutil.rmtree(child, ignore_errors=True)

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in listed}
    missing = sorted(set(units) - set(metrics))
    extra = sorted(set(metrics) - set(units))
    if missing or extra:
        raise SystemExit(f"benchmark: missing metrics {missing}, unlisted {extra}")
    invalid = [n for n, v in metrics.items() if not math.isfinite(v)]
    for name in invalid:
        ctx.tally.record(False, f"metric {name} is not a finite number")

    tally = ctx.tally
    correct = tally.failed == 0 and tally.attempted > 0
    for name, unit in units.items():
        print(f"{args.workload}: {name} = {metrics[name]:.6g} {unit}")
    for problem in tally.problems:
        print(f"{args.workload}: FAILED {problem}")
    record = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name] if name not in invalid else 0.0, "unit": unit}
            for name, unit in units.items()
        },
    }
    (workdir / "result.json").write_text(
        json.dumps(
            {**record, "workload": args.workload, "seed": args.seed,
             "details": details, "problems": tally.problems},
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
