"""Answer capture and the oracles the workloads check against.

Every oracle is computed apart from the code path it checks, and always
outside the timed regions:

* ``envelope_errors`` — every complete demand answer is a subset of the
  whole-program Andersen solution for its variable, and equals
  NOREFINE's answer wherever both are complete (batch-check);
* ``cold_rows`` — the answers of a cold, local, default engine built
  from PIR text (ide-edit after an edit, shared-fleet per program
  version);
* ``diff_rows`` — element-wise comparison of two answer sets.
"""

from repro import ALL_CLIENTS, AndersenAnalysis, NoRefine, PointsToEngine, build_pag, parse_program


def run_check(engine):
    """One full check: every NullDeref, SafeCast and FactoryM query,
    one engine batch per client.  Returns ``[(verdicts, batch), ...]``."""
    return [engine.run_client(client) for client in ALL_CLIENTS]


def rows(check):
    """Canonical, comparable answers of one check: per query its client,
    site, completeness, objects (stable allocation labels) and verdict."""
    out = []
    for verdicts, batch in check:
        for verdict, result in zip(verdicts, batch.results):
            query = verdict.query
            out.append((
                query.client,
                query.method,
                query.var,
                query.description,
                bool(result.complete),
                tuple(sorted(str(obj.object_id) for obj in result.objects)),
                verdict.status,
            ))
    return out


def cold_rows(text):
    """Answers of a cold local engine on ``text`` (the reference a
    remote-backed or edited engine must reproduce)."""
    engine = PointsToEngine(build_pag(parse_program(text)))
    return rows(run_check(engine))


def diff_rows(expected, got, what, limit=3):
    """Human-readable differences between two answer lists (empty when
    equal)."""
    if len(expected) != len(got):
        return [f"{what}: {len(got)} answers, expected {len(expected)}"]
    errors = []
    for want, have in zip(expected, got):
        if want != have:
            errors.append(f"{what}: {have[:4]} answered {have[4:]}, expected {want[4:]}")
            if len(errors) >= limit:
                break
    return errors


def envelope_errors(text, answer_rows, what, limit=3):
    """Check answers against Andersen (soundness envelope) and NOREFINE
    (equal where both complete).  Returns ``(errors, compared)``."""
    program = parse_program(text)
    andersen = AndersenAnalysis(program).solve()
    pag = build_pag(program, call_graph=andersen.call_graph)
    norefine = NoRefine(pag)
    errors = []
    compared = 0
    memo = {}
    for client, method, var, _desc, complete, objects, _status in answer_rows:
        if not complete:
            continue
        objects = set(objects)
        exhaustive = {str(oid) for oid, _cls in andersen.points_to_local(method, var)}
        if not objects <= exhaustive:
            errors.append(
                f"{what}: {client} {method}.{var} answered {sorted(objects - exhaustive)} "
                "outside the Andersen solution"
            )
        key = (method, var)
        if key not in memo:
            result = norefine.points_to(pag.find_local(method, var))
            memo[key] = (
                result.complete,
                {str(obj.object_id) for obj in result.objects},
            )
        ref_complete, ref_objects = memo[key]
        if ref_complete:
            compared += 1
            if ref_objects != objects:
                errors.append(
                    f"{what}: {client} {method}.{var} answered {sorted(objects)}, "
                    f"NOREFINE {sorted(ref_objects)}"
                )
        if len(errors) >= limit:
            break
    return errors, compared
