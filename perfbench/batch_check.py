"""batch-check: a CI-style cold check of every program in the set.

A round checks each program (in a seeded order) in a fresh process
(``worker.py``).  An operation is one program's check; it fails when
the process dies or returns no answers.  Answers are checked outside the
timed regions: the first round against Andersen and NOREFINE, every
later round (and every warm repeat) against the first.
"""

import json
import os
import subprocess
import sys
import time

from common import ROOT, Outcome, median, quartiles, run_rounds
from oracles import envelope_errors
from programs import BATCH_PROGRAMS, program_text, seeded

WORKER = os.path.join(ROOT, "perfbench", "worker.py")
WORKER_TIMEOUT_S = 150


def _check_one(text, traced):
    """Spawn a worker on ``text``; returns (setup_s, to_verdicts_s,
    payload) or raises ``RuntimeError``."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, "--trace", "1" if traced else "0"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, encoding="utf-8",
        cwd=ROOT,
    )
    try:
        proc.stdin.write(text)
        proc.stdin.close()
        ready_line = proc.stdout.readline()
        ready = time.perf_counter()
        checked_line = proc.stdout.readline()
        checked = time.perf_counter()
        rest = proc.stdout.read()
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready_line.strip() != "ready" or checked_line.strip() != "checked":
        raise RuntimeError(f"worker exited {code}")
    return ready - started, checked - started, json.loads(rest)


def run(seed, seconds, tracer, quick=False):
    out = Outcome()
    programs = [(name, program_text(config)) for name, config in BATCH_PROGRAMS]
    if quick:
        programs = [p for p in programs if p[0] in ("soot-c", "luindex", "xalan")]
    order_rng = seeded(seed, "batch-check")
    reference = {}
    per_round = []
    # Per round, the per-program samples of each timing summed over the set.
    timed = []
    to_verdicts_ms = []
    rss = []

    def one_round(index):
        order = list(range(len(programs)))
        order_rng.shuffle(order)
        sums = {}
        series = {key: out.series() for key in ("setup_s", "check_s", "warm_s", "to_verdicts_ms")}
        for position in order:
            name, text = programs[position]
            op = f"r{index}.{name}"
            mark = out.speed.begin()
            try:
                with tracer.span("batch.program", op):
                    setup_s, verdicts_s, payload = _check_one(text, tracer.enabled)
            except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
                out.speed.end(mark)
                out.op(failed=True)
                out.notes.setdefault("failures", []).append(f"{op}: {exc!r}")
                continue
            out.op(failed=False)
            slices = out.speed.end(mark)
            if tracer.enabled:
                for span in payload["spans"]:
                    span["op"] = op
                tracer.adopt(payload["spans"], parent=tracer.spans[-1]["id"])
            answers = [tuple(a[:5]) + (tuple(a[5]), a[6]) for a in payload["answers"]]
            out.check(payload["warm_equal"], f"{op}: warm repeat changed answers")
            if name not in reference:
                reference[name] = answers
                errors, compared = envelope_errors(text, answers, op)
                out.errors.extend(errors)
                out.notes.setdefault("oracle_compared", {})[name] = compared
            else:
                out.check(answers == reference[name], f"{op}: answers differ from round 0")
            to_verdicts_ms.append(verdicts_s * 1000.0)
            rss.append(payload["peak_rss_mb"])
            values = dict(payload["timings"])
            values.update({
                "setup_s": setup_s,
                "to_verdicts_ms": verdicts_s * 1000.0,
                "check_s": payload["check_s"],
                "warm_s": payload["warm_s"],
                "first_batch_s": payload["first_batch_s"],
                "batch_s": payload["batch_s"],
                "steps": payload["steps"],
                "hits": payload["hits"],
                "misses": payload["misses"],
                "incomplete": payload["incomplete"],
                "summaries": payload["summaries"],
                "nodes": payload["nodes"],
                "edges": payload["edges"],
            })
            for key, value in values.items():
                sums[key] = sums.get(key, 0) + value
            for key, samples in series.items():
                samples.add(values[key], slices)
            out.notes["traversal_impl"] = payload["impl"]
        per_round.append(sums)
        timed.append(series)

    rounds = run_rounds(seconds, one_round, min_rounds=1 if quick else 2)
    out.notes["rounds"] = rounds

    def med(key):
        values = [r[key] for r in per_round if key in r]
        return median(values) if values else 0.0

    def round_median(key):
        """Median over rounds of the set's sum of ``key``."""
        return lambda view: median([sum(view(series[key])) for series in timed])

    out.timing("setup_s", "s", round_median("setup_s"))
    out.end_to_end["peak_rss_mb"] = (max(rss) if rss else 0.0, "MB")
    out.timing("check_s", "s", round_median("check_s"))
    out.timing("warm_check_s", "s", round_median("warm_s"))
    # A CI host answers an edit with a cold check of the program: spawn
    # to last verdict, averaged over the set, median over rounds.  (The
    # median over all programs' samples sits on whichever one or two
    # programs fall in the middle of the set, and moved 9-16% between
    # runs.)
    out.timing(
        "edit_to_verdicts_p50_ms", "ms",
        lambda view: median([
            sum(view(series["to_verdicts_ms"])) / max(1, len(series["to_verdicts_ms"].wall))
            for series in timed
        ]),
    )
    out.notes["spawn_to_verdicts_ms_quartiles"] = quartiles(to_verdicts_ms) if to_verdicts_ms else None

    lookups = med("hits") + med("misses")
    batch_time = med("first_batch_s") + med("batch_s")
    out.per_layer.update({
        "repro.import_s": (med("import_s"), "s"),
        "ir.parse_s": (med("ir_parse_s"), "s"),
        "callgraph.solve_s": (med("callgraph_solve_s"), "s"),
        "pag.build_s": (med("pag_build_s"), "s"),
        "pag.csr_s": (med("pag_csr_s"), "s"),
        "native.load_s": (med("native_load_s"), "s"),
        "pag.nodes": (med("nodes"), "count"),
        "pag.edges": (med("edges"), "count"),
        "engine.first_batch_s": (med("first_batch_s"), "s"),
        "engine.batch_s": (med("batch_s"), "s"),
        "analysis.steps": (med("steps"), "count"),
        "analysis.steps_per_s": (med("steps") / batch_time if batch_time else 0.0, "1/s"),
        "analysis.hit_rate": (med("hits") / lookups if lookups else 0.0, "ratio"),
        "analysis.summaries": (med("summaries"), "count"),
        "analysis.incomplete": (med("incomplete"), "count"),
    })
    return out
