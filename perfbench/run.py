"""Run one benchmark workload in this process and print its result.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload batch-check --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload ide-edit --quick      # self-check

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Metric names, units and directions are those of ``BENCHMARK.json``.
A traced run also writes its spans to ``perfbench/out/``.  The exit code
is 0 only when every output check passed.
"""

import argparse
import importlib
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402

WORKLOADS = ("batch-check", "ide-edit", "shared-fleet")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true",
        help="self-check: one short round with every correctness check on",
    )
    return parser.parse_args(argv)


def _declared_metrics():
    with open(os.path.join(common.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return spec["end_to_end"], spec["per_layer"]


def main(argv=None):
    args = _parse_args(argv)
    end_to_end, per_layer = _declared_metrics()
    common.use_source_tree()
    cpu = common.pin_to_one_cpu()
    started = time.perf_counter()
    import repro  # noqa: F401  (timed: the import a host pays once)

    import_s = time.perf_counter() - started
    module = importlib.import_module(args.workload.replace("-", "_"))
    tracer = common.Tracer(bool(args.trace), prefix="main.")
    seconds = 0.0 if args.quick else args.seconds
    outcome = module.run(args.seed, seconds, tracer, quick=args.quick)
    wall = time.perf_counter() - started

    # Every declared metric, in declared order.  A per-layer metric the
    # workload's layers do not exercise reads 0 (e.g. round trips on the
    # local-only batch-check).
    for spec in end_to_end:
        if spec["name"] not in outcome.end_to_end:
            raise SystemExit(f"perfbench: {args.workload} did not measure {spec['name']}")
    # End-to-end timings arrive at the nominal machine speed (see
    # common.SpeedReference); the wall times as measured go to the notes.
    outcome.notes["speed_scale"] = outcome.speed.scale()
    outcome.notes["cpu"] = cpu
    outcome.notes["wall_times"] = outcome.wall
    outcome.end_to_end = {s["name"]: outcome.end_to_end[s["name"]] for s in end_to_end}
    outcome.per_layer.setdefault("repro.import_s", (import_s, "s"))
    if args.trace:
        cost = common.span_cost_s()
        spans = len(tracer.spans)
        outcome.per_layer["trace.spans"] = (spans, "count")
        outcome.per_layer["trace.overhead_pct"] = (100.0 * spans * cost / wall, "%")
        path = os.path.join(common.OUT_DIR, f"trace-{args.workload}-{args.seed}.jsonl")
        tracer.write(path, {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "wall_s": wall, "span_cost_s": cost,
            "end_to_end": {k: v for k, (v, _u) in outcome.end_to_end.items()},
            "notes": outcome.notes,
        })
    outcome.per_layer = {
        s["name"]: outcome.per_layer.get(s["name"], (0, s["unit"])) for s in per_layer
    }
    for message in outcome.errors[:20]:
        print(f"perfbench: CHECK FAILED: {message}", file=sys.stderr)
    for message in outcome.notes.get("failures", [])[:5]:
        print(f"perfbench: operation failed: {message}", file=sys.stderr)
    summary = {k: v for k, v in outcome.notes.items() if k != "failures"}
    print(f"perfbench: {args.workload} seed={args.seed} wall={wall:.1f}s {json.dumps(summary, default=str)}")
    if args.trace:
        # The traced run's own end-to-end values, for `compare.py overhead`.
        print("perfbench: e2e " + json.dumps({k: v for k, (v, _u) in outcome.end_to_end.items()}))
    print(common.result_line(outcome, args.trace))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
