"""One pass of one benchmark workload, in a fresh single-threaded process.

run.py starts this file from the checkout root with `src` on PYTHONPATH,
once per pass, so no pass finds a cache warmed by an earlier one:

    python3 benchmarks/workload.py --workload NAME --seed N [--trace]

The seed draws the pass's inputs; the same seed gives every pass the same
operations, which run through the public sylvshift API. It prints one JSON
object: the pass's wall and CPU seconds and each operation's latency,
each also scaled to the reference machine speed that SpeedProbe measures
against, attempted operations, failures with their replayable inputs, a
digest of every answer, the process's peak RSS and, with --trace, the
per-layer aggregates from tracing.py.

Every operation runs under try/except; an exception, a wrong answer or a
certificate that fails to verify is recorded as a failure and the run goes
on. Answers are checked after each pass's timed section, against literals
and against a few-line BST insertion that lives here, so a broken `psylv`
cannot vouch for itself.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import re
import resource
import signal
import statistics
import sys
import time
from math import comb

import sylvshift
from sylvshift import cli, cocharge, graph, monoid, pathsynth

# --- independent references -------------------------------------------------


def bst_key(word) -> tuple:
    """Shape-and-label key of the right-to-left BST insertion of word (equal go left).

    Written independently of sylvshift.trees: nodes are [label, left, right]
    lists, and the key is the preorder label sequence with 0 for empty slots.
    """
    root = None
    for a in reversed(word):
        node = [a, None, None]
        if root is None:
            root = node
            continue
        cur = root
        while True:
            side = 1 if a <= cur[0] else 2
            if cur[side] is None:
                cur[side] = node
                break
            cur = cur[side]
    key, todo = [], [root]
    while todo:
        node = todo.pop()
        if node is None:
            key.append(0)
        else:
            key.append(node[0])
            todo.append(node[2])
            todo.append(node[1])
    return tuple(key)


def chain_error(source, target, witnesses) -> str | None:
    """Why the witness pairs (x, y) fail to link source to target in len(source) shifts."""
    if len(witnesses) != len(source):
        return f"{len(witnesses)} steps, expected {len(source)}"
    cur = bst_key(source)
    for i, (x, y) in enumerate(witnesses):
        if bst_key(x + y) != cur:
            return f"step {i}: x+y does not read the current tree"
        cur = bst_key(y + x)
    if cur != bst_key(target):
        return "last step does not end at the target tree"
    return None


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


# --- machine speed ------------------------------------------------------------

PROBE_INTERVAL_S = 0.02
PROBE_WORDS = 20  # BST insertions per probe
PROBE_POOL = 8000  # words the insertions cycle through
PROBE_LOOKUPS = 500  # random reads per probe
PROBE_TABLE = 30000  # tuples the reads scatter over: megabytes, like the program
# About the seconds one probe takes inside a pass on a quiet 2-core Xeon with
# Python 3.11: the reference speed that the "_ref" times are scaled to. Only
# the scale of those times depends on it, not their spread.
PROBE_REF_S = 0.55e-3


class SpeedProbe:
    """Samples the speed the machine gives this process, all through the timed section.

    Every PROBE_INTERVAL_S a timer signal runs one probe, written here and
    using no sylvshift code, so a change to the program cannot change its
    time; only the machine can. A probe runs between two bytecodes of
    whatever the program is doing, on the same core and in the same
    process, so the probes of an interval see the slowdowns that the
    program saw in it. Their time is taken out of the operation times.

    A probe has two halves, because other tenants slow them differently:
    BST insertion of fixed permutations (allocation and branches; slows
    less than the program) and reads of a large table in a fixed random
    order (cache misses; slows more). Their sum tracks the program.
    """

    def __init__(self) -> None:
        rng = random.Random(0)
        self.words = [tuple(rng.sample(range(1, 33), 32)) for _ in range(PROBE_POOL)]
        self.table = [(i * 7919, i % 1000) for i in range(PROBE_TABLE)]
        self.order = rng.sample(range(PROBE_TABLE), PROBE_TABLE)
        self.next_word = self.next_read = 0
        self.samples: list[tuple[float, float]] = []  # (start, seconds)

    def _probe(self, signum, frame) -> None:
        t0 = time.perf_counter()
        seen: dict = {}
        i = self.next_word
        for w in self.words[i:i + PROBE_WORDS]:
            key = bst_key(w)
            seen[key] = seen.get(key, 0) + 1
        self.next_word = (i + PROBE_WORDS) % PROBE_POOL
        table, total, j = self.table, 0, self.next_read
        for k in self.order[j:j + PROBE_LOOKUPS]:
            total += table[k][1]
        self.next_read = (j + PROBE_LOOKUPS) % PROBE_TABLE
        self.samples.append((t0, time.perf_counter() - t0))

    @contextlib.contextmanager
    def running(self):
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)

    def spent(self, t0: float, t1: float) -> float:
        """Seconds of probes that ran between t0 and t1."""
        return sum(d for s, d in self.samples if t0 <= s < t1)

    def speed(self, t0: float, t1: float) -> float:
        """The machine's speed between t0 and t1 (at least one probe) over the reference speed.

        Work done at speed v takes time w/v, so the interval's time times
        this factor, the mean of PROBE_REF_S / d over its probes, is the
        time the same work takes at the reference speed.
        """
        pad = PROBE_INTERVAL_S
        near = [d for s, d in self.samples if t0 - pad <= s < t1 + pad]
        if not near:
            near = [min(self.samples, key=lambda sd: abs(sd[0] - t0))[1]]
        return statistics.mean(PROBE_REF_S / d for d in near)


# --- recording ----------------------------------------------------------------


class Recorder:
    """Timed section, per-operation latencies, failures and answers of one pass.

    Every pass of a run repeats the same operations under the same keys, so
    run.py can combine each operation's times over the passes. With a
    SpeedProbe, probe time is taken out of every time, and each time is
    also given scaled to the probe's reference speed ("_ref"); operation
    times are given only so.
    """

    def __init__(self, probe: SpeedProbe | None) -> None:
        self.probe = probe
        self.wall = self.cpu = self.wall_ref = self.cpu_ref = 0.0
        self.op_spans: dict[str, tuple[float, float]] = {}
        self.attempted = 0
        self.failures: list[dict] = []
        self.answers: list = []

    @contextlib.contextmanager
    def timed(self):
        with self.probe.running() if self.probe else contextlib.nullcontext():
            w0, c0 = time.perf_counter(), _cpu()
            yield
            w1, c1 = time.perf_counter(), _cpu()
        probed = self.probe.spent(w0, w1) if self.probe else 0.0
        self.wall, self.cpu = w1 - w0 - probed, c1 - c0 - probed
        scale = self.probe.speed(w0, w1) if self.probe else 1.0
        self.wall_ref, self.cpu_ref = self.wall * scale, self.cpu * scale

    def op(self, key, replay: str, fn):
        """Run one operation; return its result, or None after recording a failure.

        key names the operation across passes; None leaves it out of the
        latency samples.
        """
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn()
        except (Exception, SystemExit) as exc:  # recorded with its input, run goes on
            self.fail(replay, f"{type(exc).__name__}: {exc}")
            return None
        if key is not None:
            self.op_spans[str(key)] = (t0, time.perf_counter())
        return result

    def op_ref_ms(self) -> dict[str, float]:
        """Each operation's milliseconds without probe time, at the reference speed."""
        probe = self.probe
        return {key: (t1 - t0 - probe.spent(t0, t1)) * 1e3 * probe.speed(t0, t1)
                for key, (t0, t1) in self.op_spans.items()} if probe else {}

    def fail(self, replay: str, why: str) -> None:
        self.failures.append({"input": replay, "why": why[:300]})

    def check(self, ok: bool, replay: str, why: str) -> None:
        """Count a wrong answer from an operation that did not raise as a failure."""
        if not ok:
            self.fail(replay, why)


def _max_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _cpu() -> float:
    """User plus system CPU seconds of this process and its reaped children."""
    ch = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ch.ru_utime + ch.ru_stime


# --- workloads ----------------------------------------------------------------

DISTANCE_QUERIES = 100  # seeded vertex pairs per component run
PATH_N = 32
PATH_PAIRS = 100  # seeded tree pairs per paths run

# Exhaustive classes: (evaluation, vertices, edges, diameter).
COMPONENTS = {
    "std-components": ((1,) * 7, catalan(7), 5138, 6),
    "multiset-components": ((2, 1, 2, 1, 2), 136, 2369, 3),
}


def _arrangement(rng: random.Random, evaluation) -> tuple[int, ...]:
    word = [a for a, c in enumerate(evaluation, start=1) for _ in range(c)]
    rng.shuffle(word)
    return tuple(word)


def _build(evaluation, n):
    g = graph.component(evaluation, n)
    return g, graph.diameter(g)[0]


def run_component(name: str, rng: random.Random, rec: Recorder) -> None:
    """Build one evaluation class, take its diameter, then answer seeded distance queries."""
    evaluation, n_vertices, n_edges, diam = COMPONENTS[name]
    n = len(evaluation)
    standard = all(c == 1 for c in evaluation)
    pairs = [(_arrangement(rng, evaluation), _arrangement(rng, evaluation))
             for _ in range(DISTANCE_QUERIES)]
    dists = []
    with rec.timed():
        built = rec.op(None, f"component {evaluation}", lambda: _build(evaluation, n))
        if built is not None:
            g = built[0]
            for i, (u, v) in enumerate(pairs):
                dists.append(rec.op(i, f"distance {evaluation} {u} {v}",
                                    lambda: graph.distance(g, monoid.element_of(u, n),
                                                           monoid.element_of(v, n))))
    if built is None:
        return
    g, d = built
    got = (len(g.vertices), g.edge_count(), d, g.connected)
    rec.check(got == (n_vertices, n_edges, diam, True), f"component {evaluation}",
              f"(vertices, edges, diameter, connected) = {got}, expected "
              f"{(n_vertices, n_edges, diam, True)}")
    for (u, v), dist in zip(pairs, dists):
        if dist is None:
            continue
        lo = 0 if bst_key(u) == bst_key(v) else 1
        hi = 0 if lo == 0 else diam
        if standard and lo:
            lo = max(lo, cocharge.cocharge_lower_bound(monoid.element_of(u, n).tree,
                                                       monoid.element_of(v, n).tree))
        rec.check(lo <= dist <= hi, f"distance {evaluation} {u} {v}",
                  f"distance {dist} outside [{lo}, {hi}]")
    rec.answers.append([got[:3], dists])


def _path_word(rng: random.Random, n: int) -> tuple[int, ...]:
    """1..n with a uniformly drawn fraction of its positions shuffled among themselves.

    Fraction 0 inserts to a chain, fraction 1 to a random BST, so tree depth
    spreads continuously between the two.
    """
    word = list(range(1, n + 1))
    picked = rng.sample(range(n), round(rng.random() * n))
    values = [word[i] for i in picked]
    rng.shuffle(values)
    for i, a in zip(picked, values):
        word[i] = a
    return tuple(word)


def _certified_path(u, v, n):
    cert = pathsynth.shift_path(monoid.element_of(u, n), monoid.element_of(v, n))
    return cert, cert.verify()


def run_paths(rng: random.Random, rec: Recorder) -> None:
    """Certified n-step shift paths between seeded standard trees, as `path --check`."""
    n = PATH_N
    pairs = [(_path_word(rng, n), _path_word(rng, n)) for _ in range(PATH_PAIRS)]
    results = []
    with rec.timed():
        for i, (u, v) in enumerate(pairs):
            results.append(rec.op(i, f"path {u} {v}", lambda: _certified_path(u, v, n)))
    for (u, v), res in zip(pairs, results):
        if res is None:
            continue
        cert, verified = res
        witnesses = [(s.witness.x, s.witness.y) for s in cert.steps]
        why = "certificate fails verify()" if not verified else chain_error(u, v, witnesses)
        rec.check(why is None, f"path {u} {v}", str(why))
        rec.answers.append(witnesses)


# Each suite's PASS line must carry these counts. Patterns are searched,
# so later versions may append timings or extra counts to the line.
SUITE_COUNTS = {
    "oracle": [r"\b5460 words\b", r"\b1530 classes\b"],  # 5460 = sum of 4^k, k = 1..6
    "cocharge-congruence": [r"\b5913 standard words\b"],  # sum of k!, k = 1..7
    "cocharge-shift": [r"\b5912 shifted pairs\b"],  # sum of k!(k+1), k = 1..6
    "connectivity": [r"\b329 evaluation classes\b"],
    "diameter-bounds": [r"\bn=2: diameter 1\b", r"\bn=3: diameter 2\b",
                        r"\bn=4: diameter 3\b", r"\bn=5: diameter 4\b"],
    "distance-lower-bound": [r"\b1989 standard pairs\b"],  # sum of Catalan(k)^2, k = 2..5
    "path": [r"\b1990 ordered pairs\b",  # sum of Catalan(k)^2, k = 1..5
             r"'base', 'case1', 'case2a', 'case2b', 'case3', 'case4a', 'case4b'"],
    "example-path": [r"5-step chain matches"],
    "induced-subgraph": [r"\b12 elements\b"],
    "monoid": [r"\b7569 class pairs\b", r"\b17728 triples\b"],  # 7569 = 87^2
}


def _suite(name: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", name, "--jobs", "1"])
    return code, out.getvalue()


def run_verify_all(rec: Recorder) -> None:
    """Every verification suite at its default depth, through the CLI entry point."""
    results = []
    with rec.timed():
        for name in SUITE_COUNTS:
            results.append(rec.op(name, f"verify {name}", lambda: _suite(name)))
    for name, res in zip(SUITE_COUNTS, results):
        if res is None:
            continue
        code, text = res
        head = text.splitlines()[0] if text else ""
        missing = [p for p in SUITE_COUNTS[name] if not re.search(p, head)]
        rec.check(code == 0 and head.startswith(f"PASS {name}") and not missing,
                  f"verify {name}", f"exit {code}, line {head!r}, missing {missing}")
        rec.answers.append(text)


WORKLOADS = ("std-components", "multiset-components", "paths", "verify-all")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    rng = random.Random(args.seed)
    # Probes would land inside traced spans, so traced passes run without them.
    # The probe's tables are left out of the peak RSS.
    rss_kb = _max_rss_kb()
    probe = None if tracer else SpeedProbe()
    probe_kb = _max_rss_kb() - rss_kb
    rec = Recorder(probe)
    if args.workload in COMPONENTS:
        run_component(args.workload, rng, rec)
    elif args.workload == "paths":
        run_paths(rng, rec)
    else:
        run_verify_all(rec)

    digest = hashlib.sha256(json.dumps(rec.answers).encode()).hexdigest()
    print(json.dumps({
        "module": sylvshift.__file__,
        "wall_s": rec.wall,
        "cpu_s": rec.cpu,
        "wall_ref_s": rec.wall_ref,
        "cpu_ref_s": rec.cpu_ref,
        "op_ref_ms": rec.op_ref_ms(),
        "probes": len(probe.samples) if probe else 0,
        "attempted": rec.attempted,
        "failures": rec.failures,
        "answers": digest,
        "max_rss_kb": _max_rss_kb() - probe_kb,
        "layers": tracer.layers() if tracer else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
