"""The benchmark's own tests: every oracle rejects a corrupted answer.

Run from the root of a checkout (not part of the tier-1 suite, whose
``testpaths`` is ``tests``)::

    python3 -m pytest perfbench/test_oracles.py -q
"""

import os
import random
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

common.use_source_tree()

from repro import PointsToEngine, build_pag, parse_program  # noqa: E402
from repro.ir import pretty_print  # noqa: E402

from oracles import cold_rows, diff_rows, envelope_errors, rows, run_check  # noqa: E402
from programs import IDE_PROGRAM, edit_script, program_text, wide_program_text  # noqa: E402

SOURCE = """
class Animal { }
class Dog extends Animal { }
class Cat extends Animal { }

class Kennel {
  field occupant;
  method put(a) { this.occupant = a; }
  method get() {
    r = this.occupant;
    return r;
  }
}

class Main {
  static method main() {
    dogHouse = new Kennel;
    catHouse = new Kennel;
    rex = new Dog;
    tom = new Cat;
    dogHouse.put(rex);
    catHouse.put(tom);
    d = dogHouse.get();
    c = catHouse.get();
    d.put(c);
    sure = (Dog) d;
    oops = (Dog) c;
  }
}
"""


def _answers(text=SOURCE):
    return rows(run_check(PointsToEngine(build_pag(parse_program(text)))))


def _corrupt(answers, change):
    """Apply ``change`` to the first complete answer with objects."""
    out = list(answers)
    for index, row in enumerate(out):
        if row[4] and row[5]:
            out[index] = change(row)
            return out
    raise AssertionError("no complete, non-empty answer to corrupt")


def test_envelope_accepts_true_answers():
    errors, compared = envelope_errors(SOURCE, _answers(), "ok")
    assert errors == []
    assert compared > 0


def test_envelope_rejects_object_outside_andersen():
    bad = _corrupt(_answers(), lambda r: r[:5] + (r[5] + ("Nowhere.nothing#0",),) + r[6:])
    errors, _ = envelope_errors(SOURCE, bad, "extra")
    assert any("outside the Andersen solution" in e for e in errors)


def test_envelope_rejects_answer_smaller_than_norefine():
    bad = _corrupt(_answers(), lambda r: r[:5] + (r[5][1:],) + r[6:])
    errors, _ = envelope_errors(SOURCE, bad, "missing")
    assert any("NOREFINE" in e for e in errors)


def test_cold_engine_oracle_rejects_changed_verdict():
    good = _answers()
    assert diff_rows(cold_rows(SOURCE), good, "ok") == []
    flipped = _corrupt(good, lambda r: r[:6] + ("safe" if r[6] != "safe" else "violation",))
    assert diff_rows(cold_rows(SOURCE), flipped, "flip")


def test_cold_engine_oracle_rejects_missing_answer():
    assert diff_rows(cold_rows(SOURCE), _answers()[:-1], "short")


def test_edit_script_ends_on_starting_program():
    _name, config = IDE_PROGRAM
    text = program_text(config)
    program = parse_program(text)
    reachable = build_pag(program).call_graph.reachable_methods
    script = edit_script(program, reachable, random.Random(7), 12)
    assert sum(1 for action, _ in script if action == "apply") == 12
    changed = False
    for action, edit in script:
        method = program.lookup_method(edit.method)
        (edit.apply if action == "apply" else edit.revert)(method)
        program.finalize()
        changed = changed or pretty_print(program) != text
    assert changed, "the script never changed the program"
    assert pretty_print(program) == text


def test_unreverted_edit_is_detected_by_the_cold_oracle():
    """An edit script that skips a revert leaves different answers, and
    the end-of-script comparison catches it."""
    _name, config = IDE_PROGRAM
    text = program_text(config)
    program = parse_program(text)
    reachable = build_pag(program).call_graph.reachable_methods
    script = edit_script(program, reachable, random.Random(3), 30)
    edited = set()
    for action, edit in script:
        if action == "apply" and edit.kind != "touch" and edit.method not in edited:
            edit.apply(program.lookup_method(edit.method))
            edited.add(edit.method)
    program.finalize()
    assert diff_rows(cold_rows(text), cold_rows(pretty_print(program)), "unreverted")


def test_wide_program_parses_and_answers():
    answers = _answers(wide_program_text(methods=2, allocs=5))
    assert answers and all(row[4] for row in answers)


def test_self_time_subtracts_children():
    tracer = common.Tracer(True)
    tracer.spans = [
        {"id": "a", "name": "outer", "start": 0.0, "end": 10.0, "parent": None, "op": None},
        {"id": "b", "name": "inner", "start": 1.0, "end": 4.0, "parent": "a", "op": None},
        {"id": "c", "name": "inner", "start": 3.0, "end": 6.0, "parent": "a", "op": None},
    ]
    totals = tracer.self_times()
    assert totals["outer"] == 5.0
    assert totals["inner"] == 6.0
