"""shared-fleet: successive in-process clients over a two-shard cache
fleet, beside a local-only engine on the same programs.

A round spawns fresh ``repro-cached`` fleets (two async shard processes
each; the spawn is repeated so set-up and the publishing client pool
several samples per round) and runs, one after another and each with
empty local tiers:

1. the publishing client: checks every program through
   ``CachePolicy(remote=...)`` and publishes what it computes (one per
   spawned fleet);
2. ``WARM_CLIENTS`` warm clients doing the same check on the last
   fleet, which prefetch should serve;
3. the editing client: a program-backed engine on one suite program
   that applies a seeded edit script (every edit reverted), so
   invalidations and epoch bumps travel beside the fetches.  Each round
   draws a fresh script from the seeded stream, so a run samples many
   different edits rather than repeating a few;
4. a local-only engine per program, the simpler alternative.

Every metric pools samples from every round, so from across the whole
run.  An operation is one client batch (one ``run_client``); it fails
when ``store_errors``, ``remote_errors`` or ``degraded`` in the cache's
``RemoteStoreStats`` grew during it (for the editing client, the edit
before a check counts with its first batch).  Every client's answers
must equal a local-only engine's answers on the same program version.
"""

import os
import time

from repro import ALL_CLIENTS, CachePolicy, EnginePolicy, PointsToEngine, build_pag, parse_program
from repro.api.codec import decode_response, encode
from repro.api.protocol import StoreStatsRequest
from repro.cacheserver import CacheCluster, ShardLink
from repro.ir import pretty_print

from common import OUT_DIR, Outcome, median, peak_rss_mb, process_peak_rss_mb, run_rounds
from oracles import cold_rows, diff_rows, rows
from programs import FLEET_PROGRAMS, edit_script, program_text, seeded, wide_program_text

SHARDS = 2
#: Fleets spawned per round, each first served by a publishing client:
#: a publish needs shards that hold nothing yet, so this is how a run
#: pools several set-up and check_s samples per round.
SETUP_REPEATS = 2
WARM_CLIENTS = 2
#: The editing client works on one program, so its edit samples are of
#: one kind of work (a mixture's median jumps between programs).
EDIT_PROGRAM = "xalan"
EDITS_PER_ROUND = 4
STATS_PINGS = 5
FAILURE_COUNTERS = ("store_errors", "remote_errors", "degraded")
COUNTERS = FAILURE_COUNTERS + (
    "round_trips", "prefetched", "remote_hits", "remote_misses", "invalidations",
)


def _counts(cache):
    stats = cache.remote_stats()
    return {name: getattr(stats, name) for name in COUNTERS}


class _Client:
    """Accounting for one client's batches: failures per batch, counter
    totals per round, time inside the batches."""

    def __init__(self, out, tracer, totals):
        self.out = out
        self.tracer = tracer
        self.totals = totals
        self.op = None

    def _wrap(self, cache):
        """Traced runs time the pipelining hooks on the cache instance."""
        if not self.tracer.enabled or getattr(cache, "_perfbench_wrapped", False):
            return
        for hook, name in (("begin_batch", "cacheserver.prefetch"), ("end_batch", "cacheserver.flush")):
            inner = getattr(cache, hook)

            def timed(inner=inner, name=name):
                with self.tracer.span(name, self.op):
                    return inner()

            setattr(cache, hook, timed)
        cache._perfbench_wrapped = True

    def check(self, engine, op, pending=None):
        """Run every client as one batch each; returns (seconds inside
        the batches, answer rows).  ``pending`` carries counter deltas
        (an edit's) into the first batch's failure test."""
        results, elapsed = [], 0.0
        self.op = op
        for client in ALL_CLIENTS:
            cache = engine.cache
            self._wrap(cache)
            before = _counts(cache)
            began = time.perf_counter()
            with self.tracer.span("engine.batch", op):
                results.append(engine.run_client(client))
            elapsed += time.perf_counter() - began
            delta = {k: v - before[k] for k, v in _counts(cache).items()}
            if pending:
                delta = {k: v + pending.get(k, 0) for k, v in delta.items()}
                pending = None
            for name, value in delta.items():
                self.totals[name] = self.totals.get(name, 0) + value
            failed = any(delta[name] > 0 for name in FAILURE_COUNTERS)
            self.out.op(failed)
            if failed:
                self.out.notes.setdefault("failures", []).append(
                    f"{op} {client.name}: " + ", ".join(f"{k}+{delta[k]}" for k in FAILURE_COUNTERS)
                )
        return elapsed, rows(results)


def _shard_entries(addresses):
    """Entries resident on the shards and the store-stats round trip."""
    entries, rtts = 0, []
    for address in addresses:
        link = ShardLink(address, timeout=2.0)
        try:
            for _ in range(STATS_PINGS):
                began = time.perf_counter()
                response = decode_response(link.request(encode(StoreStatsRequest())))
                rtts.append(time.perf_counter() - began)
            entries += response.stats.entries
        finally:
            link.close()
    return entries, median(rtts[1:] if len(rtts) > 1 else rtts)


def _spawn_quietly(log_path):
    """Spawn the fleet with the shards' standard error in a log file."""
    saved = os.dup(2)
    with open(log_path, "a", encoding="utf-8") as log:
        os.dup2(log.fileno(), 2)
        try:
            return CacheCluster.spawn(shards=SHARDS)
        finally:
            os.dup2(saved, 2)
            os.close(saved)


def run(seed, seconds, tracer, quick=False):
    out = Outcome()
    os.makedirs(OUT_DIR, exist_ok=True)
    log_path = os.path.join(OUT_DIR, f"shards-{seed}.log")
    open(log_path, "w").close()
    texts = [(name, program_text(config)) for name, config in FLEET_PROGRAMS]
    texts.append(("wide", wide_program_text()))
    # Parsed once: no engine changes its program except the editing
    # client's, which parses its own.
    parsed = {name: parse_program(text) for name, text in texts}
    rng = seeded(seed, "shared-fleet")
    edit_text = dict(texts)[EDIT_PROGRAM]
    edit_program = parse_program(edit_text)
    reachable = build_pag(edit_program).call_graph.reachable_methods
    n_edits = 1 if quick else EDITS_PER_ROUND
    warm_clients = 1 if quick else WARM_CLIENTS
    reference = {}

    def local_rows(text):
        if text not in reference:
            reference[text] = cold_rows(text)
        return reference[text]

    setup, edit_ms = out.series(), out.series()
    local = []
    publish, warm = {}, {}  # program -> Series of seconds per client
    per_round = []

    def check_programs(policy, client_op, samples, client):
        """One client: a fresh remote-backed engine per program, all
        three clients' batches on each.  The order is fixed: each batch
        prefetches the whole shard store, so a client's cost depends on
        which programs were published before it (a seeded order moved
        check_s by a third)."""
        for name, text in texts:
            op = f"{client_op}.{name}"
            pag = build_pag(parsed[name])
            mark = out.speed.begin()
            began = time.perf_counter()
            engine = PointsToEngine(pag, policy)
            built = time.perf_counter() - began
            in_batches, answers = client.check(engine, op)
            samples.setdefault(name, out.series()).add(built + in_batches, out.speed.end(mark))
            if samples is warm:
                client.totals["warm_steps"] += engine.stats().steps
            engine.cache.close()
            out.errors.extend(diff_rows(local_rows(text), answers, op))

    def edit_client(policy, op, client):
        """The editing client: this round's slice of the seeded edit
        stream, each step followed by a full re-check."""
        script = edit_script(edit_program, reachable, rng, n_edits)
        engine = PointsToEngine.for_program(parse_program(edit_text), policy)
        _elapsed, answers = client.check(engine, op)
        out.errors.extend(diff_rows(local_rows(edit_text), answers, op))
        session = engine.edit_session()
        for step, (action, edit) in enumerate(script):
            step_op = f"{op}.e{step}"
            mutate = edit.mutator(action)
            old = engine.cache
            before = _counts(old)
            mark = out.speed.begin()
            began = time.perf_counter()
            with tracer.span("engine.edit", step_op):
                session.edit(edit.method, mutate)
            edited = time.perf_counter() - began
            pending = {k: v - before[k] for k, v in _counts(old).items()}
            in_batches, answers = client.check(engine, step_op, pending)
            edit_ms.add((edited + in_batches) * 1000.0, out.speed.end(mark))
            # Versions recur within and across rounds; the oracle is
            # cached per program text.
            out.errors.extend(
                diff_rows(local_rows(pretty_print(engine.program)), answers, step_op)
            )
        out.errors.extend(diff_rows(local_rows(edit_text), answers, f"{op} end of script"))
        engine.cache.close()

    def one_round(index):
        totals = {"warm_steps": 0}
        client = _Client(out, tracer, totals)
        # SETUP_REPEATS fresh fleets, each served first by a publishing
        # client; the last fleet also serves the warm and editing
        # clients.
        cluster = None
        for repeat in range(SETUP_REPEATS):
            if cluster is not None:
                cluster.stop()
            mark = out.speed.begin()
            began = time.perf_counter()
            with tracer.span("cacheserver.spawn", f"r{index}s{repeat}"):
                cluster = _spawn_quietly(log_path)
            setup.add(time.perf_counter() - began, out.speed.end(mark))
            policy = EnginePolicy(cache=CachePolicy(remote=cluster.addresses))
            try:
                check_programs(policy, f"r{index}p{repeat}", publish, client)
            except BaseException:
                cluster.stop()
                raise
        try:
            for number in range(warm_clients):
                check_programs(policy, f"r{index}w{number}", warm, client)
            edit_client(policy, f"r{index}edit.{EDIT_PROGRAM}", client)

            total = 0.0
            for name, text in texts:
                pag = build_pag(parsed[name])
                began = time.perf_counter()
                with tracer.span("engine.local_check", f"r{index}.{name}"):
                    engine = PointsToEngine(pag)
                    answers = rows([engine.run_client(c) for c in ALL_CLIENTS])
                total += time.perf_counter() - began
                out.errors.extend(diff_rows(local_rows(text), answers, f"r{index} local {name}"))
            local.append(total)

            totals["shard_entries"], totals["stats_rtt_s"] = _shard_entries(cluster.addresses)
            totals["shard_rss_mb"] = max(process_peak_rss_mb(p.pid) for p in cluster.processes)
        finally:
            cluster.stop()
        per_round.append(totals)

    rounds = run_rounds(seconds, one_round, min_rounds=1 if quick else 2)
    out.notes["rounds"] = rounds
    with open(log_path, encoding="utf-8", errors="replace") as log:
        out.notes["shard_line_limit_drops"] = sum("longer than limit" in line for line in log) // 2

    out.timing("setup_s", "s", lambda view: median(view(setup)))
    out.end_to_end["peak_rss_mb"] = (peak_rss_mb(), "MB")
    # Per program the median over clients, summed over programs: round
    # trips make single clients jittery, and one slow program in one
    # client should not move the whole metric.
    out.timing("check_s", "s", lambda view: sum(median(view(v)) for v in publish.values()))
    out.timing("warm_check_s", "s", lambda view: sum(median(view(v)) for v in warm.values()))
    out.notes["client_s"] = {
        name: [round(median(publish[name].wall), 4), round(median(warm[name].wall), 4)]
        for name in publish
    }
    out.timing("edit_to_verdicts_p50_ms", "ms", lambda view: median(view(edit_ms)))

    def med(key):
        return median([r.get(key, 0) for r in per_round])

    def count(key):
        # Rounds draw different edit scripts, so counts are the first
        # round's: the same at a given seed however many rounds ran.
        return per_round[0].get(key, 0)

    probes = count("remote_hits") + count("remote_misses")
    spans = tracer.self_times() if tracer.enabled else {}
    out.per_layer.update({
        "cacheserver.prefetch_s": (spans.get("cacheserver.prefetch", 0.0) / rounds, "s"),
        "cacheserver.flush_s": (spans.get("cacheserver.flush", 0.0) / rounds, "s"),
        "cacheserver.round_trips": (count("round_trips"), "count"),
        "cacheserver.prefetched": (count("prefetched"), "count"),
        "cacheserver.remote_hit_rate": (count("remote_hits") / probes if probes else 0.0, "ratio"),
        "cacheserver.shard_entries": (count("shard_entries"), "count"),
        "cacheserver.stats_rtt_ms": (med("stats_rtt_s") * 1000.0, "ms"),
        "analysis.warm_steps": (count("warm_steps"), "count"),
        "cacheserver.store_errors": (count("store_errors"), "count"),
        "cacheserver.remote_errors": (count("remote_errors"), "count"),
        "cacheserver.degraded": (count("degraded"), "count"),
        "cacheserver.invalidations": (count("invalidations"), "count"),
        "cacheserver.shard_peak_rss_mb": (med("shard_rss_mb"), "MB"),
        "engine.local_check_s": (median(local), "s"),
    })
    return out
