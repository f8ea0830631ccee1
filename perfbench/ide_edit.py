"""ide-edit: one long-lived program-backed engine under a seeded edit
script, re-checking every client after every edit.

A round loads the program from PIR text, builds a fresh
``PointsToEngine.for_program`` engine, runs the first full check and a
plays the whole edit script through one ``EditSession``; the script
reverts every edit, so the round ends on the starting program.  Warm
re-checks (no edit in between) and fresh set-ups are interleaved with
the edits, so every metric pools samples from across the whole run.  An
operation is one scripted edit plus the full re-check after it; it fails
if either raises.
"""

import time

from repro import PointsToEngine, build_pag, parse_program
from repro.ir import pretty_print

from common import Outcome, median, peak_rss_mb, quartiles, run_rounds, tail_percentile
from oracles import cold_rows, diff_rows, rows, run_check
from programs import IDE_PROGRAM, edit_script, program_text, seeded

EDITS_PER_ROUND = 30
#: A warm re-check (no edit since the last check) after every
#: WARM_EVERY-th step, and a fresh set-up after every SETUP_EVERY-th.
WARM_EVERY = 4
SETUP_EVERY = 10
#: Every COLD_CHECK_EVERY-th step is checked against a cold engine (the
#: full check costs about as much as the edit it checks).
COLD_CHECK_EVERY = 3


def run(seed, seconds, tracer, quick=False):
    out = Outcome()
    _name, config = IDE_PROGRAM
    text = program_text(config)
    start_program = parse_program(text)
    reachable = build_pag(start_program).call_graph.reachable_methods
    n_edits = 6 if quick else EDITS_PER_ROUND
    script = edit_script(start_program, reachable, seeded(seed, "ide-edit"), n_edits)
    cold_every = 1 if quick else COLD_CHECK_EVERY

    setup, first_check, warm, edit_ms = (out.series() for _ in range(4))
    edit_s, requery_s, rebuild_s = [], [], []
    failed_ms = out.series()
    per_round = []
    reference = {}

    def build(op):
        """Program load through the first full check: one set-up sample
        and one cold-check sample."""
        mark = out.speed.begin()
        started = time.perf_counter()
        with tracer.span("ir.parse", op):
            program = parse_program(text)
        with tracer.span("engine.build", op):
            engine = PointsToEngine.for_program(program)
        first = time.perf_counter()
        with tracer.span("engine.first_check", op):
            check = run_check(engine)
        done = time.perf_counter()
        slices = out.speed.end(mark)
        setup.add(done - started, slices)
        first_check.add(done - first, slices)
        return engine, rows(check)

    def one_round(index):
        op_base = f"r{index}"
        engine, initial = build(f"{op_base}s")
        if "initial" not in reference:
            reference["initial"] = initial
            out.errors.extend(diff_rows(cold_rows(text), initial, "ide-edit initial check"))
        out.errors.extend(diff_rows(reference["initial"], initial, f"round {index} initial check"))

        session = engine.edit_session()
        counts = {"steps": 0, "hits": 0, "misses": 0, "migrated": 0, "dropped": 0, "csr": 0}
        check = None
        for step, (action, edit) in enumerate(script):
            op = f"{op_base}e{step}"
            mutate = edit.mutator(action)
            try:
                mark = out.speed.begin()
                began = time.perf_counter()
                with tracer.span("engine.edit", op):
                    report = session.edit(edit.method, mutate)
                edited = time.perf_counter()
                with tracer.span("engine.requery", op):
                    check = run_check(engine)
                finished = time.perf_counter()
            except Exception as exc:  # an operation failure, counted
                out.op(failed=True)
                failed_ms.add((time.perf_counter() - began) * 1000.0, out.speed.end(mark))
                out.notes.setdefault("failures", []).append(f"{op} {edit!r}: {exc!r}")
                check = None
                continue
            out.op(failed=False)
            edit_ms.add((finished - began) * 1000.0, out.speed.end(mark))
            edit_s.append(edited - began)
            requery_s.append(finished - edited)
            for _verdicts, batch in check:
                counts["steps"] += batch.stats.steps
                counts["hits"] += batch.stats.cache_hits
                counts["misses"] += batch.stats.cache_misses
            counts["migrated"] += report.migrated
            counts["dropped"] += report.dropped
            counts["csr"] += engine.pag.csr_compiles
            if tracer.enabled:
                # The share of the edit an incremental PAG could save,
                # timed beside (not inside) the edit.
                began = time.perf_counter()
                with tracer.span("pag.rebuild", op):
                    build_pag(engine.program)
                rebuild_s.append(time.perf_counter() - began)
            if step % cold_every == 0:
                out.errors.extend(
                    diff_rows(cold_rows(pretty_print(engine.program)), rows(check), f"after {op} {edit!r}")
                )
            # Samples of the other metrics, spread over the whole run:
            # a re-check with no edit in between, and a fresh set-up.
            if step % WARM_EVERY == WARM_EVERY - 1:
                mark = out.speed.begin()
                began = time.perf_counter()
                with tracer.span("engine.warm_check", op):
                    again = run_check(engine)
                warm.add(time.perf_counter() - began, out.speed.end(mark))
                out.errors.extend(diff_rows(rows(check), rows(again), f"warm re-check after {op}"))
            if step % SETUP_EVERY == SETUP_EVERY - 1:
                build(f"{op}s")
        if check is not None:
            out.errors.extend(diff_rows(initial, rows(check), f"round {index} end of script"))
        if not warm.wall:
            # Every edit failed: the warm re-check of the starting program.
            engine = build(f"{op_base}w")[0]
            mark = out.speed.begin()
            began = time.perf_counter()
            run_check(engine)
            warm.add(time.perf_counter() - began, out.speed.end(mark))
        per_round.append(counts)

    rounds = run_rounds(seconds, one_round, min_rounds=1 if quick else 2)
    out.notes["rounds"] = rounds

    out.timing("setup_s", "s", lambda view: median(view(setup)))
    out.end_to_end["peak_rss_mb"] = (peak_rss_mb(), "MB")
    out.timing("check_s", "s", lambda view: median(view(first_check)))
    out.timing("warm_check_s", "s", lambda view: median(view(warm)))
    # Failed edits never refresh their verdicts; only when every edit
    # failed does the time to the failure stand in, so the metric exists.
    if not edit_ms.wall:
        edit_ms = failed_ms
    out.timing("edit_to_verdicts_p50_ms", "ms", lambda view: median(view(edit_ms)))
    # The tail, like every per-layer timing, as measured.
    p90 = tail_percentile(edit_ms.wall, 90)
    out.notes["edits"] = len(edit_ms.wall)
    out.notes["edit_to_verdicts_ms_quartiles"] = quartiles(edit_ms.wall)

    n = max(1, len(edit_ms.wall) // max(1, rounds))
    last = per_round[-1]
    lookups = last["hits"] + last["misses"]
    out.per_layer.update({
        "edit_to_verdicts_p90_ms": (p90 if p90 is not None else max(edit_ms.wall), "ms"),
        "engine.edit_s": (median(edit_s) if edit_s else 0.0, "s"),
        "pag.rebuild_s": (median(rebuild_s) if rebuild_s else 0.0, "s"),
        "engine.requery_s": (median(requery_s) if requery_s else 0.0, "s"),
        "analysis.requery_steps": (last["steps"], "count"),
        "analysis.requery_hit_rate": (last["hits"] / lookups if lookups else 0.0, "ratio"),
        "analysis.migrated": (last["migrated"], "count"),
        "analysis.dropped": (last["dropped"], "count"),
        "pag.csr_compiles": (last["csr"] / n, "count"),
    })
    return out
