"""The benchmark's inputs: program set, fault-probe program, edit scripts.

Programs are generated from fixed :class:`GeneratorConfig`\\ s and handed
to the program under test only as PIR text.  The benchmark seed does not
pick generator seeds: on the Table-3 configs, cold query time over the
set ranged from 7.9 s to 27.7 s across five generator seeds, far beyond
any bound a run-to-run comparison could hold.  The seed instead drives
everything whose cost is statistically stable: the order programs are
checked in, and every edit script (which methods, which edit kinds,
which statements, when each edit is reverted).
"""

import random

from repro.bench.generator import generate_program
from repro.bench.suite import BENCHMARK_NAMES, benchmark_config
from repro.ir import pretty_print
from repro.ir.ast import Alloc, NullAssign
from repro.perf.harness import GENERATOR_CONFIG

#: batch-check: the nine Table-3 programs at suite scale, plus two
#: larger generated programs (the perf harness's GENERATOR_CONFIG and
#: jython at 1.5x).
BATCH_PROGRAMS = tuple((name, benchmark_config(name)) for name in BENCHMARK_NAMES) + (
    ("generator", GENERATOR_CONFIG),
    ("jython-1.5x", benchmark_config("jython", 1.5)),
)

#: ide-edit: one mid-size generated program, soot-c at suite scale
#: (243 client queries; a full cold check takes about 60 ms, an edit
#: with its re-check about 70 ms, so a run holds well over 100 edits).
IDE_PROGRAM = ("soot-c", benchmark_config("soot-c"))

#: shared-fleet: suite programs whose fleet clients finish in well under
#: a second each.  Programs whose batches compute tens of thousands of
#: summaries (jack, jython, avrora, batik) are left out: every local-tier
#: miss costs one round trip to a shard, so one such client takes
#: minutes (README, "Faults").  bloat is left out too: its clients cost
#: what xalan's do, for the same kind of work, and a shorter round puts
#: more rounds, so more samples, into a run.
FLEET_PROGRAMS = tuple((name, benchmark_config(name)) for name in ("soot-c", "xalan", "luindex"))

#: Shape of the fault-probe program (see :func:`wide_program_text`).
WIDE_METHODS = 8
WIDE_ALLOCS = 400


def program_text(config):
    return pretty_print(generate_program(config))


def wide_program_text(methods=WIDE_METHODS, allocs=WIDE_ALLOCS):
    """A small program whose summaries are large: ``methods`` factories
    each merge ``allocs`` allocation sites into one returned variable.
    One client batch publishes a handful of summaries whose pipelined
    ``batch-store`` line is well over 64 KiB, so the shard-side line
    limit fault fires on every publish, on inputs independent of the
    seed."""
    lines = ["class Data {\n  field f;\n}"]
    for index in range(methods):
        body = "\n".join("    r = new Data;" for _ in range(allocs))
        lines.append(f"class Wide{index} {{\n  method make() {{\n{body}\n    return r;\n  }}\n}}")
    calls = []
    for index in range(methods):
        calls.append(f"    w{index} = new Wide{index};")
        calls.append(f"    x{index} = w{index}.make();")
        calls.append(f"    x{index}.f = x{index};")
        calls.append(f"    y{index} = (Data) x{index};")
    lines.append("class Main {\n  static method main() {\n" + "\n".join(calls) + "\n  }\n}")
    return "\n\n".join(lines) + "\n"


def seeded(seed, purpose):
    return random.Random(f"perfbench:{seed}:{purpose}")


# ----------------------------------------------------------------------
# edit scripts
# ----------------------------------------------------------------------
EDIT_KINDS = ("swap", "null-insert", "null-remove", "touch")


def _touch(method):
    """A body-preserving edit."""


class Edit:
    """One scripted edit of a worker method, with its revert.

    ``apply(method)`` and ``revert(method)`` are ``mutate_fn``\\ s for
    :meth:`EditSession.edit`.  The revert restores the exact statement
    list the edit replaced, so a script that reverts every edit ends on
    the starting program.
    """

    def __init__(self, kind, method, index=None, value=None):
        self.kind = kind
        self.method = method
        self.index = index
        self.value = value
        self._saved = None

    def apply(self, method):
        self._saved = list(method.statements)
        stmts = method.statements
        if self.kind == "swap":
            old = stmts[self.index]
            stmts[self.index] = Alloc(old.target, self.value, old.label)
        elif self.kind == "null-insert":
            stmts.insert(self.index, NullAssign(self.value))
        elif self.kind == "null-remove":
            del stmts[self.index]

    def revert(self, method):
        method.statements[:] = self._saved
        self._saved = None

    def mutator(self, action):
        """The ``mutate_fn`` for one script step (``apply``/``revert``).
        A touch does nothing either way: the host re-saved the file."""
        if self.kind == "touch":
            return _touch
        return self.apply if action == "apply" else self.revert

    def __repr__(self):
        return f"Edit({self.kind}, {self.method}, {self.index}, {self.value})"


def _candidate_edits(program, reachable):
    """Every edit the script may draw, per worker method, on the
    starting program."""
    classes = sorted(
        {s.class_name for _m, s in program.statements() if s.kind == "alloc"}
    )
    per_method = {}
    for method in program.methods():
        qname = method.qualified_name
        if not method.name.startswith("work") or qname not in reachable:
            continue
        options = {"touch": [Edit("touch", qname)]}
        stmts = method.statements
        swaps, inserts, removes = [], [], []
        for index, stmt in enumerate(stmts):
            if stmt.kind == "alloc":
                for cls in classes:
                    if cls != stmt.class_name:
                        swaps.append(Edit("swap", qname, index, cls))
            elif stmt.kind == "null":
                removes.append(Edit("null-remove", qname, index))
            target = getattr(stmt, "target", None)
            if target is not None and stmt.kind != "return":
                inserts.append(Edit("null-insert", qname, index + 1, target))
        for kind, edits in (("swap", swaps), ("null-insert", inserts), ("null-remove", removes)):
            if edits:
                options[kind] = edits
        per_method[qname] = options
    return per_method


def edit_script(program, reachable, rng, n_edits, max_open=3):
    """A seeded script of ``2 * n_edits`` steps: ``("apply", edit)`` and
    ``("revert", edit)``.  At most ``max_open`` edits are outstanding at
    once, on distinct methods; every edit is reverted by the end."""
    per_method = _candidate_edits(program, reachable)
    methods = sorted(per_method)
    script, open_edits, made = [], [], 0
    while made < n_edits or open_edits:
        revert = open_edits and (
            made >= n_edits or len(open_edits) >= max_open or rng.random() < 0.45
        )
        if revert:
            edit = open_edits.pop(rng.randrange(len(open_edits)))
            script.append(("revert", edit))
            continue
        busy = {e.method for e in open_edits}
        qname = rng.choice([m for m in methods if m not in busy])
        options = per_method[qname]
        kind = rng.choice([k for k in EDIT_KINDS if k in options])
        template = rng.choice(options[kind])
        edit = Edit(template.kind, template.method, template.index, template.value)
        open_edits.append(edit)
        script.append(("apply", edit))
        made += 1
    return script
