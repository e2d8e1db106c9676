"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload train-hybrid --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing traced;
``--trace 1`` measures the per-layer metrics from a traced run (and
writes its spans as a Chrome trace-event file Perfetto opens, under
``.perfbench-out/``). Every metric is printed with its unit and sample
count, followed by the checks of the program's outputs and the
environment; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code
is 0 only when every check held.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"


def _parse(argv):
    from perfbench import catalog

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=catalog.ALL)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_program() -> None:
    """Put the program's sources on the path, refusing to run without
    them."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources under {src}; run from "
                 "a checkout of the repository")
    sys.path.insert(0, str(src))


def _stop_helpers() -> None:
    """Stop the helper processes :mod:`multiprocessing` starts and
    leaves to outlive the caller (the resource tracker the shared-memory
    store registers with, and a fork server if one was used), waiting
    until each has ended."""
    from multiprocessing import forkserver, resource_tracker

    resource_tracker._resource_tracker._stop()
    forkserver._forkserver._stop()


def main(argv=None) -> int:
    try:
        return _main(argv)
    finally:
        _stop_helpers()


def _main(argv) -> int:
    sys.path.insert(0, str(ROOT))
    args = _parse(argv)
    _import_program()
    from perfbench import catalog
    from perfbench.env import environment
    from perfbench.spans import Tracer
    from perfbench.workloads import run_serving, run_training, write_trace

    tracer = Tracer(OUT / "spool") if args.trace else None
    started = time.perf_counter()
    if args.workload in catalog.SERVE:
        result = run_serving(args.seed, args.seconds, tracer)
    else:
        result = run_training(args.workload, args.seed, args.seconds,
                              tracer)
    elapsed = time.perf_counter() - started

    wanted = catalog.PER_LAYER if args.trace else catalog.END_TO_END
    metrics = {}
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  ({elapsed:.1f} s)")
    for m in wanted:
        value, count = result.metrics.get(m.name, (0.0, 0))
        if not math.isfinite(value):
            result.checks[f"{m.name}_finite"] = False
        metrics[m.name] = {"value": value, "unit": m.unit}
        scope = "" if args.workload in m.workloads else "  (n/a here)"
        moves = f"  -> {', '.join(m.moves)}" if m.moves else ""
        print(f"  {m.name:<30} {value:>14.6g} {m.unit:<9} n={count}"
              f"{scope}{moves}")
    if not args.trace:
        if "final_loss" in result.info:
            print(f"  {'final_loss':<30} "
                  f"{result.info['final_loss']:>14.6g}")
        print(f"  {'error_rate':<30} "
              f"{result.failed / max(1, result.attempted):>14.6g} "
              f"{'ratio':<9} n={result.attempted}")
    for name, ok in result.checks.items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    env = environment(args.seed, result.mp_start_method)
    print(f"  env {json.dumps(env, sort_keys=True)}")
    correct = bool(result.checks) and all(result.checks.values())

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "env": env, "info": result.info,
        "checks": result.checks,
        "metrics": {k: {"value": v, "samples": n}
                    for k, (v, n) in result.metrics.items()},
    }, indent=1, sort_keys=True, default=str))
    if tracer is not None:
        write_trace(tracer, OUT / f"{stem}.trace.json")
        print(f"  trace {OUT / (stem + '.trace.json')}")

    print(json.dumps({"correct": correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    if not correct:
        failed = [k for k, ok in result.checks.items() if not ok]
        print(f"perfbench: output checks failed: {failed}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
