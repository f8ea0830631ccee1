"""Shared plumbing of the benchmark: statistics, spans, results.

Everything here is standard library only.  The program under test is
imported by the workload modules, never by this one, so ``run.py`` can
fail fast (before any import of ``repro``) when the source tree is
missing.
"""

import gc
import json
import os
import resource
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "perfbench", "out")


def use_source_tree():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else;
    scrub every ``REPRO_*`` variable so the engine runs with library
    defaults.  Child processes inherit the same environment."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"perfbench: no source tree at {SRC}")
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    parts = [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(parts)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def pin_to_one_cpu():
    """Run this process, and every process it starts, on one CPU.

    The shard processes of shared-fleet answer the load process's round
    trips.  Left free, they land on either CPU of a small machine, and a
    round trip across CPUs costs about three times one on the same CPU
    (a warm xalan client: 1.25-1.55 s with the shards free, 0.45-0.53 s with
    all on one CPU), so whole runs came out twice as slow, by placement,
    while the reference slices (``SpeedReference``, timed in the load
    process) saw nothing.  On one CPU the placement is fixed and the
    slices see what the workload sees; the round trips are closed-loop
    (the client waits for each reply), so little runs in parallel to
    lose.  The highest-numbered CPU is taken, since CPU 0 usually takes
    the device interrupts.  Returns the CPU, or ``None`` where affinity
    cannot be set."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(values, pct):
    """The ``pct`` percentile, or ``None`` when fewer than ten samples
    lie beyond it (a percentile with fewer is no tail)."""
    beyond = len(values) * (100 - pct) / 100.0
    if beyond < 10:
        return None
    cuts = statistics.quantiles(values, n=100)
    return cuts[pct - 1]


def peak_rss_mb():
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid):
    """Peak resident set of another live process, from ``VmHWM``."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class Tracer:
    """In-memory span recorder.

    A span has a name, start, end (``perf_counter`` seconds; the clock
    is system-wide, so spans from child processes merge), its parent
    span and the id of the operation it belongs to.  Disabled tracers
    hand out a shared null context, so untraced runs pay one attribute
    lookup per call site.
    """

    def __init__(self, enabled, prefix=""):
        self.enabled = enabled
        self.prefix = prefix
        self.spans = []
        self._stack = []
        self._next = 0
        self._null = nullcontext()

    def span(self, name, op=None):
        if not self.enabled:
            return self._null
        return self._record(name, op)

    @contextmanager
    def _record(self, name, op):
        self._next += 1
        span_id = f"{self.prefix}{self._next}"
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(
                {"id": span_id, "name": name, "start": start, "end": end,
                 "parent": parent, "op": op}
            )

    def adopt(self, spans, parent=None):
        """Merge spans recorded elsewhere (a child process); their roots
        become children of ``parent``."""
        for span in spans:
            if span["parent"] is None:
                span = dict(span, parent=parent)
            self.spans.append(span)

    def self_times(self):
        """Per-name total self time: each span's duration minus the part
        of its interval that its children cover."""
        children = {}
        for span in self.spans:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append(span)
        totals = {}
        for span in self.spans:
            covered = _covered(span, children.get(span["id"], ()))
            own = (span["end"] - span["start"]) - covered
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
        return totals

    def write(self, path, header):
        """Write the spans as JSON lines: one header line, one line per
        span, one line with per-name self times."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(dict(header, kind="header")) + "\n")
            for span in self.spans:
                handle.write(json.dumps(dict(span, kind="span")) + "\n")
            handle.write(json.dumps({"kind": "self_time", "seconds": self.self_times()}) + "\n")


def _covered(span, kids):
    """Length of the union of the children's intervals, clipped to the
    parent's."""
    intervals = sorted(
        (max(k["start"], span["start"]), min(k["end"], span["end"])) for k in kids
    )
    total = 0.0
    cur_start = cur_end = None
    for start, end in intervals:
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def span_cost_s(samples=20000):
    """Measured cost of recording one span on this machine (seconds)."""
    tracer = Tracer(True)
    started = time.perf_counter()
    for _ in range(samples):
        with tracer.span("calibrate"):
            pass
    return (time.perf_counter() - started) / samples


# ----------------------------------------------------------------------
# machine speed
# ----------------------------------------------------------------------
#: Median time of one ``_reference_work()`` call on the machine the
#: bounds were set on (2-core x86-64 VM, CPython 3.11).
REFERENCE_NOMINAL_S = 0.01


def _reference_work(n=20000):
    """A fixed slice of pure-Python work of the kind the analyses do
    (dict and set churn over small tuples)."""
    table, seen, acc = {}, set(), 0
    for i in range(n):
        key = (i * 7919) % 10007
        table[key] = table.get(key, 0) + 1
        if key & 1:
            seen.add((key, i & 15))
        acc += len(seen) & 3
    return acc


class SpeedReference:
    """Measures how fast the machine runs around each timed sample.

    The machine this benchmark runs on is shared: the same fixed work
    takes up to twice as long from one minute to the next, and within a
    minute.  Every timed sample is therefore bracketed by slices of
    fixed reference work, one right before it (``begin``) and one right
    after it (``end``); a slice that ended less than ``REUSE_S`` ago
    serves as the next sample's first slice.  Slices are never inside a
    timed region.  A sample is reported at the nominal speed: its wall
    time times ``REFERENCE_NOMINAL_S`` over the median of its own slices
    and the ``NEIGHBOURS`` slices on either side of them.  Adjacent
    slices differ by about 17% on a busy machine, so the median over a
    few of them follows the machine's drift without adding that jitter.
    """

    REUSE_S = 0.02
    NEIGHBOURS = 2

    def __init__(self):
        self.samples = []  # every slice's seconds, in order
        self._last_end = 0.0

    def _slice(self):
        # A collection of the workload's heap must not land in a slice.
        collecting = gc.isenabled()
        gc.disable()
        try:
            began = time.perf_counter()
            _reference_work()
            done = time.perf_counter()
        finally:
            if collecting:
                gc.enable()
        self._last_end = done
        self.samples.append(done - began)
        return len(self.samples) - 1

    def begin(self):
        """The slice before a sample; call right before timing it."""
        if self.samples and time.perf_counter() - self._last_end < self.REUSE_S:
            return len(self.samples) - 1
        return self._slice()

    def end(self, before):
        """The slice after a sample; returns the sample's span of
        slices for ``factor``."""
        return before, self._slice()

    def factor(self, span):
        """The factor from wall time to nominal for a sample's span."""
        first, last = span
        window = self.samples[max(0, first - self.NEIGHBOURS):last + 1 + self.NEIGHBOURS]
        return REFERENCE_NOMINAL_S / statistics.median(window)

    def scale(self):
        """The run's median factor from wall time to nominal (notes)."""
        if not self.samples:
            self._slice()
        return REFERENCE_NOMINAL_S / statistics.median(self.samples)


class Series:
    """The samples of one timing, as measured (``wall``) and at the
    nominal machine speed (``nominal``, computed once the run's slices
    are all taken)."""

    def __init__(self, speed):
        self.speed = speed
        self.wall = []
        self.spans = []

    def add(self, seconds, span):
        """One sample and its ``SpeedReference.end`` span."""
        self.wall.append(seconds)
        self.spans.append(span)

    @property
    def nominal(self):
        return [s * self.speed.factor(span) for s, span in zip(self.wall, self.spans)]


# ----------------------------------------------------------------------
# rounds and results
# ----------------------------------------------------------------------
def run_rounds(seconds, one_round, min_rounds):
    """Run whole rounds: ``min_rounds``, then another while one more
    round of the last one's length still ends within ``seconds``.  A
    round is never cut, so every run attempts whole rounds of the same
    operations, and a slow machine runs fewer rounds rather than longer
    runs."""
    started = time.perf_counter()
    index = 0
    last = 0.0
    while index < min_rounds or time.perf_counter() - started + last <= seconds:
        began = time.perf_counter()
        one_round(index)
        last = time.perf_counter() - began
        index += 1
    return index


class Outcome:
    """What a workload hands back to ``run.py``."""

    def __init__(self):
        self.speed = SpeedReference()
        self.attempted = 0
        self.failed = 0
        self.errors = []  # correctness violations (strings)
        self.end_to_end = {}  # name -> (value, unit)
        self.wall = {}  # timing name -> value as measured (notes)
        self.per_layer = {}  # name -> (value, unit)
        self.tracer = None
        self.notes = {}

    def series(self):
        return Series(self.speed)

    def timing(self, name, unit, aggregate):
        """Report an end-to-end timing: ``aggregate(view)`` computes it
        from ``view(series)``, the sample list of a ``Series``; it runs
        once on the nominal samples (the metric) and once on the wall
        samples (the notes)."""
        self.end_to_end[name] = (aggregate(lambda series: series.nominal), unit)
        self.wall[name] = aggregate(lambda series: series.wall)

    def check(self, condition, message):
        if not condition:
            self.errors.append(message)

    def op(self, failed):
        self.attempted += 1
        if failed:
            self.failed += 1

    @property
    def correct(self):
        return not self.errors


def result_line(outcome, trace):
    metrics = outcome.per_layer if trace else outcome.end_to_end
    return json.dumps(
        {
            "correct": outcome.correct,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )
