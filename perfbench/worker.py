"""batch-check's per-program process: a CI-style cold check.

Reads one program as PIR text on standard input, builds a ready engine
(import, parse, call graph, PAG, CSR), prints ``ready``, answers every
NullDeref, SafeCast and FactoryM query once, prints ``checked``, repeats
the whole check once in the same process, and prints one JSON line with
its answers, timings and counters.  The parent times spawn-to-``ready``
(set-up) and spawn-to-``checked`` (a CI host's edit-to-verdicts).
"""

import json
import os
import sys
import time

began = time.perf_counter()
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402


def main():
    traced = sys.argv[1:] == ["--trace", "1"]
    tracer = common.Tracer(traced, prefix="w.")
    common.use_source_tree()
    timings = {}
    started = time.perf_counter()
    with tracer.span("repro.import"):
        from repro import AndersenAnalysis, PointsToEngine, build_pag, parse_program
    from oracles import rows, run_check

    timings["import_s"] = time.perf_counter() - started
    text = sys.stdin.read()

    def timed(name, fn):
        started = time.perf_counter()
        with tracer.span(name):
            value = fn()
        timings[name.replace(".", "_") + "_s"] = time.perf_counter() - started
        return value

    program = timed("ir.parse", lambda: parse_program(text))
    if traced:
        # The same work build_pag(program) does, split at the call graph.
        solved = timed("callgraph.solve", lambda: AndersenAnalysis(program).solve())
        pag = timed("pag.build", lambda: build_pag(program, call_graph=solved.call_graph))
    else:
        pag = timed("pag.build", lambda: build_pag(program))
    timed("pag.csr", pag.csr)
    engine = timed("engine.build", lambda: PointsToEngine(pag))
    impl = engine.stats().traversal_impl
    if traced and impl == "native":
        from repro.native import availability

        timed("native.load", availability)
    print("ready", flush=True)

    first = time.perf_counter()
    with tracer.span("engine.check"):
        check = run_check(engine)
    check_s = time.perf_counter() - first
    print("checked", flush=True)

    warm_began = time.perf_counter()
    with tracer.span("engine.warm_check"):
        again = run_check(engine)
    warm_s = time.perf_counter() - warm_began

    stats = [batch.stats for _verdicts, batch in check]
    answers = rows(check)
    payload = {
        "answers": answers,
        "warm_equal": rows(again) == answers,
        "impl": impl,
        "check_s": check_s,
        "warm_s": warm_s,
        "first_batch_s": stats[0].time_sec,
        "batch_s": sum(s.time_sec for s in stats[1:]),
        "steps": sum(s.steps for s in stats),
        "hits": sum(s.cache_hits for s in stats),
        "misses": sum(s.cache_misses for s in stats),
        "incomplete": sum(s.incomplete for s in stats),
        "summaries": len(engine.cache) if engine.cache is not None else 0,
        "nodes": sum(pag.node_counts().values()),
        "edges": sum(pag.edge_counts().values()),
        "peak_rss_mb": common.peak_rss_mb(),
        "timings": timings,
        "process_s": time.perf_counter() - began,
        "spans": tracer.spans,
    }
    print(json.dumps(payload), flush=True)


if __name__ == "__main__":
    main()
