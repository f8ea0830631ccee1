"""Collect sets of benchmark runs and compare them.

Usage (from the root of a checkout)::

    # run every workload ten times (seeds 1..10) and keep the outputs
    python3 perfbench/compare.py collect --out perfbench/out/base --runs 10
    # the same, traced (per-layer metrics and tracing overhead)
    python3 perfbench/compare.py collect --out perfbench/out/traced --runs 3 --trace
    # steadiness of one set: quartile spread of each end-to-end metric
    python3 perfbench/compare.py check perfbench/out/base
    # two sets: medians, quartiles, bounds, failure shares, verdicts
    python3 perfbench/compare.py diff perfbench/out/base perfbench/out/change
    # tracing overhead: traced runs' end-to-end values against untraced
    python3 perfbench/compare.py overhead perfbench/out/base perfbench/out/traced

A set is a directory with one sub-directory per workload, holding one
file per run: the run's standard output, whose last line is the result
object.  ``diff`` exits 1 when a metric of the second set is worse than
the first by more than its bound, or the failure shares differ;
``check`` exits 1 when a spread (other than ``setup_s``) exceeds its
bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def load_set(directory):
    """``{workload: [result, ...]}``; each result gains ``e2e_traced``
    when the run was traced (its end-to-end values, for overhead)."""
    runs = {}
    for workload in sorted(os.listdir(directory)):
        path = os.path.join(directory, workload)
        if not os.path.isdir(path):
            continue
        for name in sorted(os.listdir(path)):
            with open(os.path.join(path, name), encoding="utf-8") as handle:
                lines = [line for line in handle.read().splitlines() if line.strip()]
            if not lines:
                continue
            result = json.loads(lines[-1])
            for line in lines:
                if line.startswith("perfbench: e2e "):
                    result["e2e_traced"] = json.loads(line[len("perfbench: e2e "):])
            runs.setdefault(workload, []).append(result)
    return runs


def _fail_share(results):
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return failed, attempted


def _values(results, metric):
    return [r["metrics"][metric]["value"] for r in results if metric in r["metrics"]]


def cmd_collect(args):
    spec = _spec()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    for workload in workloads:
        target = os.path.join(args.out, workload)
        os.makedirs(target, exist_ok=True)
        for index in range(args.runs):
            seed = args.first_seed + index
            command = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "1" if args.trace else "0",
            ]
            proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
            with open(os.path.join(target, f"seed-{seed}.out"), "w", encoding="utf-8") as handle:
                handle.write(proc.stdout)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "(no output)"
            print(f"{workload} seed={seed} exit={proc.returncode} {last}", flush=True)
    return 0


def cmd_check(args):
    spec = _spec()
    runs = load_set(args.set)
    status = 0
    print(f"{'workload':14s} {'metric':26s} {'n':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
    for workload, results in runs.items():
        for metric in spec["end_to_end"]:
            values = _values(results, metric["name"])
            if not values:
                continue
            q1, med, q3 = _quartiles(values)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if spread > metric["bound"] and metric["name"] != "setup_s":
                flag, status = " UNSTEADY", 1
            elif spread > metric["bound"] / 3:
                flag = " (over a third of the bound)"
            print(
                f"{workload:14s} {metric['name']:26s} {len(values):3d} {med:12.5g} {q1:12.5g} "
                f"{q3:12.5g} {spread:7.1%} {metric['bound']:6.0%}{flag}"
            )
        failed, attempted = _fail_share(results)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload:14s} failed {failed}/{attempted}; per-run shares {sorted(shares)}")
        if len(shares) > 1:
            status = 1
    return status


def cmd_diff(args):
    spec = _spec()
    base, change = load_set(args.base), load_set(args.change)
    status = 0
    print(
        f"{'workload':14s} {'metric':26s} {'base median [q1, q3]':>34s} "
        f"{'change median [q1, q3]':>34s} {'diff':>7s} {'bound':>6s} verdict"
    )
    for workload in sorted(set(base) & set(change)):
        for metric in spec["end_to_end"]:
            a, b = _values(base[workload], metric["name"]), _values(change[workload], metric["name"])
            if not a or not b:
                continue
            qa, qb = _quartiles(a), _quartiles(b)
            diff = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            worse = diff if metric["better"] == "lower" else -diff
            spread = (qa[2] - qa[0]) / qa[1] if qa[1] else 0.0
            if worse > metric["bound"]:
                verdict, status = "WORSE beyond bound", 1
            elif abs(diff) <= spread:
                verdict = "within base spread"
            else:
                verdict = "better" if worse < 0 else "worse, within bound"
            print(
                f"{workload:14s} {metric['name']:26s} "
                f"{qa[1]:10.5g} [{qa[0]:9.5g}, {qa[2]:9.5g}] "
                f"{qb[1]:10.5g} [{qb[0]:9.5g}, {qb[2]:9.5g}] "
                f"{diff:+7.1%} {metric['bound']:6.0%} {verdict}"
            )
        fa, aa = _fail_share(base[workload])
        fb, ab = _fail_share(change[workload])
        same = fa * ab == fb * aa
        if not same:
            status = 1
        print(
            f"{workload:14s} failed: base {fa}/{aa} ({fa / aa:.4%}), "
            f"change {fb}/{ab} ({fb / ab:.4%}){'' if same else '  SHARES DIFFER'}"
        )
    return status


def cmd_overhead(args):
    spec = _spec()
    untraced, traced = load_set(args.untraced), load_set(args.traced)
    for workload in sorted(set(untraced) & set(traced)):
        for metric in spec["end_to_end"]:
            a = _values(untraced[workload], metric["name"])
            b = [r["e2e_traced"][metric["name"]] for r in traced[workload] if "e2e_traced" in r]
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            print(f"{workload:14s} {metric['name']:26s} untraced {ma:10.5g} traced {mb:10.5g} overhead {(mb - ma) / ma:+7.1%}")
        own = _values(traced[workload], "trace.overhead_pct")
        if own:
            print(f"{workload:14s} span recording, measured in the run: {statistics.median(own):.3f}% of wall time")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    collect = sub.add_parser("collect", help="run workloads and keep their outputs")
    collect.add_argument("--out", required=True)
    collect.add_argument("--runs", type=int, default=10)
    collect.add_argument("--first-seed", type=int, default=1)
    collect.add_argument("--seconds", type=int, default=None)
    collect.add_argument("--workload", action="append")
    collect.add_argument("--trace", action="store_true")
    check = sub.add_parser("check", help="steadiness of one set")
    check.add_argument("set")
    diff = sub.add_parser("diff", help="compare two sets")
    diff.add_argument("base")
    diff.add_argument("change")
    overhead = sub.add_parser("overhead", help="tracing overhead")
    overhead.add_argument("untraced")
    overhead.add_argument("traced")
    args = parser.parse_args(argv)
    handler = {"collect": cmd_collect, "check": cmd_check, "diff": cmd_diff, "overhead": cmd_overhead}
    return handler[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
