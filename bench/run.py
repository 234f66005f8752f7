"""End-to-end and per-layer benchmark for strongedge (stdlib only).

Usage, from the root of a checkout:

    python3 bench/run.py --workload sweep|enumerate|large|all \
        --seed N --seconds S --trace 0|1

Workloads (each a closed loop: one caller, the next round starts when the
previous one has finished; one process, ``jobs=1``):

* ``sweep``: ``verify_theorem(1, ...)``, ``verify_theorem(2, ...)`` and
  ``report_to_json`` over batches of the stored corpus of all 12113
  connected graphs with n <= 8, the calls ``strongedge verify --corpus``
  makes.  The corpus is stored in an order that makes every ``BATCHES``-th
  line one batch of near-equal cost; the seed sets the batch order.
* ``enumerate``: stream ``enumerate_connected(n)`` for n = 1..8 and encode
  each graph with ``to_graph6``.  The input is fixed, so the seed is unused.
* ``large``: ``verify_theorem(1, pool, budget=LARGE_BUDGET, jobs=1)`` on a
  fixed pool of random connected graphs of maximum degree 3 with n = 28, 32
  and 36.  The solver's cost is heavy-tailed in n, so the pool is fixed
  (and its exact indices recorded) rather than drawn per run; the seed sets
  the order of the pool.

A run repeats rounds (a sweep batch, one enumeration, one pass over the
pool) until the next round would end after ``--seconds``.  A pass is one
round, or all ``BATCHES`` batches for ``sweep``.  With ``--trace 0`` it
reports the end-to-end metrics:

* ``wall_s``: median round time times rounds per pass, i.e. the time of one
  pass over the workload's whole input;
* ``graphs_per_s``: graphs finished (not failed) per second of round time;
  a sweep graph counts once, for both theorems;
* ``setup_s``: median wall time of ``SETUP_SAMPLES`` fresh interpreters that
  import strongedge and load or build the workload's input;
* ``peak_rss_mb``: peak resident memory of the measuring process.

``failed_frac`` (failed / attempted) is printed on the summary line and is
carried by the result's ``attempted`` and ``failed``.

With ``--trace 1`` every round runs untraced and then again with every call
the pipeline makes into a strongedge module wrapped by a timing span.  The
per-layer metrics are self times and counts per pass; ``trace.overhead_s``
is traced minus untraced round time per pass, a difference of two noisy
timings.

Every output, traced or not, is checked against the digests and counts in
``bench/expected.json`` (written by ``bench/make_data.py``); an exception
from a call fails every graph of that call.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from functools import wraps
from itertools import cycle
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EXPECTED = BENCH / "expected.json"
CORPUS = BENCH / "corpus_n8.g6"

WORKLOADS = ("sweep", "enumerate", "large")
BATCHES = 24  # sweep batches per pass over the corpus
SWEEP_BUDGET = 10.0  # the CLI's default per-graph budget
LARGE_SIZES = (28, 32, 36)
LARGE_SEEDS_PER_SIZE = 4
LARGE_BUDGET = 60.0
CORPUS_MAX_N = 8
SETUP_SAMPLES = 5
P99_SPAN = "patterns.find_configurations"

END_TO_END = {
    "wall_s": "s",
    "graphs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics and their units, in report order.
PER_LAYER = {
    "patterns.find_configurations_s": "s",
    "patterns.find_configurations_p99_ms": "ms",
    "patterns.matches": "count",
    "metrics.mad_exact_s": "s",
    "metrics.mad_exact_calls": "count",
    "metrics.ore_degree_s": "s",
    "coloring.chi_s_exact_s": "s",
    "coloring.k_colorable_s": "s",
    "coloring.k_colorable_calls": "count",
    "coloring.k_colorable_unsat": "count",
    "coloring.nodes": "count",
    "coloring.nodes_max": "count",
    "coloring.timeouts": "count",
    "coloring.search_frac": "fraction",
    "smallgraphs.enumerate_s": "s",
    "smallgraphs.graphs": "count",
    "graph.parse_graph6_s": "s",
    "graph.to_graph6_s": "s",
    "graph.is_connected_s": "s",
    "graph.build_conflict_graph_s": "s",
    "classes.classify_s": "s",
    "discharge.apply_rules_s": "s",
    "discharge.audit_negative_s": "s",
    "discharge.builtin_ruleset_s": "s",
    "discharge.initial_charges_s": "s",
    "verify.self_s": "s",
    "verify.report_to_json_s": "s",
    "trace.overhead_s": "s",
}


def import_strongedge():
    """Import the package from this checkout's ``src``, never elsewhere."""
    src = ROOT / "src"
    if not (src / "strongedge" / "__init__.py").is_file():
        raise SystemExit(f"error: no strongedge sources under {src}")
    sys.path.insert(0, str(src))
    import strongedge

    if Path(strongedge.__file__).resolve().parent != src / "strongedge":
        raise SystemExit(f"error: imported strongedge from {strongedge.__file__}")
    return strongedge


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def report_digest(text):
    """Digest of a ``report_to_json`` output with ``wall_ms`` removed."""
    doc = json.loads(text)
    del doc["wall_ms"]
    return sha256(json.dumps(doc, sort_keys=True))


def graph6_shape(line):
    """(n, m, sorted degrees) of a short-form graph6 line, decoded here
    rather than by strongedge so the check is independent of it."""
    n = ord(line[0]) - 63
    bits = "".join(f"{ord(c) - 63:06b}" for c in line[1:])
    deg = [0] * n
    i = 0
    for v in range(1, n):
        for u in range(v):
            if bits[i] == "1":
                deg[u] += 1
                deg[v] += 1
            i += 1
    return n, sum(deg) // 2, tuple(sorted(deg))


def fingerprint(lines):
    """Relabelling-invariant digest of a multiset of graph6 lines."""
    shapes = sorted(graph6_shape(s) for s in lines)
    return sha256(json.dumps(shapes))


def random_subcubic(n, rng):
    """A random connected graph on n vertices with maximum degree 3: a
    random tree of maximum degree 3, then random edges between vertices
    of degree < 3 until 50 n draws have been made."""
    deg = [0] * n
    edges = set()
    for v in range(1, n):
        u = rng.choice([w for w in range(v) if deg[w] < 3])
        edges.add((u, v))
        deg[u] += 1
        deg[v] += 1
    for _ in range(50 * n):
        a, b = sorted(rng.sample(range(n), 2))
        if deg[a] < 3 and deg[b] < 3 and (a, b) not in edges:
            edges.add((a, b))
            deg[a] += 1
            deg[b] += 1
    return n, sorted(edges)


def large_pool_specs():
    """(n, generator seed) of every pool instance, in pool order."""
    return [(n, 1000 * n + s) for n in LARGE_SIZES for s in range(LARGE_SEEDS_PER_SIZE)]


class Sweep:
    """Theorem 1 and 2 over stratified batches of the n <= 8 corpus."""

    pass_rounds = BATCHES

    def __init__(self, se, expected, seed):
        self.se = se
        self.exp = expected["sweep"]
        lines = CORPUS.read_text(encoding="ascii").split()
        graphs = [se.graph.parse_graph6(s) for s in lines]
        self.batches = [graphs[k::BATCHES] for k in range(BATCHES)]
        self.order = list(range(BATCHES))
        random.Random(seed).shuffle(self.order)

    def size(self, k):
        return len(self.batches[k])

    def run(self, k):
        out = []
        for theorem in (1, 2):
            try:
                report = self.se.verify.verify_theorem(
                    theorem, self.batches[k], budget=SWEEP_BUDGET, jobs=1
                )
                out.append(self.se.verify.report_to_json(report))
            except Exception as exc:  # one bad call must not end the run
                out.append(exc)
        return out

    def failed(self, k, out):
        for theorem, text in zip((1, 2), out):
            if isinstance(text, Exception):
                print(f"sweep batch {k} theorem {theorem}: {text!r}", file=sys.stderr)
                return self.size(k)
            if report_digest(text) != self.exp["digests"][str(theorem)][k]:
                print(f"sweep batch {k} theorem {theorem}: report differs", file=sys.stderr)
                return self.size(k)
        return 0


class Enumerate:
    """Stream and encode every connected graph on 1..8 vertices."""

    pass_rounds = 1

    def __init__(self, se, expected, seed):
        self.se = se
        self.exp = expected["enumerate"]
        self.order = [0]

    def size(self, _):
        return sum(self.exp["counts"].values())

    def run(self, _):
        out = {}
        for n in range(1, CORPUS_MAX_N + 1):
            try:
                out[n] = [
                    self.se.graph.to_graph6(g)
                    for g in self.se.smallgraphs.enumerate_connected(n)
                ]
            except Exception as exc:  # the self-check raises AssertionError
                out[n] = exc
        return out

    def failed(self, _, out):
        bad = 0
        for n, lines in out.items():
            want = self.exp["counts"][str(n)]
            if isinstance(lines, Exception):
                print(f"enumerate n={n}: {lines!r}", file=sys.stderr)
                bad += want
            elif (
                len(lines) != want
                or want != self.se.smallgraphs.CONNECTED_COUNTS[n]
                or fingerprint(lines) != self.exp["fingerprints"][str(n)]
            ):
                print(f"enumerate n={n}: {len(lines)} graphs, output differs", file=sys.stderr)
                bad += want
        return bad


class Large:
    """Theorem 1 over a fixed pool of subcubic graphs with n = 28..36."""

    pass_rounds = 1

    def __init__(self, se, expected, seed):
        self.se = se
        self.exp = expected["large"]
        self.pool = [
            se.graph.Graph(*random_subcubic(n, random.Random(s)))
            for n, s in large_pool_specs()
        ]
        made = [se.graph.to_graph6(g) for g in self.pool]
        if made != [inst["graph6"] for inst in self.exp["instances"]]:
            raise SystemExit("error: the large pool differs from expected.json")
        random.Random(seed).shuffle(self.pool)
        self.order = [0]

    def size(self, _):
        return len(self.pool)

    def run(self, _):
        try:
            report = self.se.verify.verify_theorem(
                1, self.pool, budget=LARGE_BUDGET, jobs=1
            )
            return self.se.verify.report_to_json(report)
        except Exception as exc:  # one bad call must not end the run
            return exc

    def failed(self, _, text):
        if isinstance(text, Exception):
            print(f"large: {text!r}", file=sys.stderr)
            return len(self.pool)
        doc = json.loads(text)
        got = {r["graph6"]: r for r in doc["records"]}
        bad = 0
        for inst in self.exp["instances"]:
            g6 = inst["graph6"]
            rec = got.get(g6)
            if (
                rec is None
                or rec["timeout"]
                or rec["chi_s"] != inst["chi_s"]
                or rec["chi_s"] > 13
                or sha256(json.dumps(rec, sort_keys=True)) != inst["record_sha256"]
            ):
                print(f"large {g6}: {rec and (rec['chi_s'], rec['timeout'])}", file=sys.stderr)
                bad += 1
        if bad == 0 and report_digest(text) != self.exp["report_digest"]:
            print("large: report differs", file=sys.stderr)
            bad = len(self.pool)
        return bad


WORKLOAD_CLASSES = {"sweep": Sweep, "enumerate": Enumerate, "large": Large}


class Tracer:
    """Self time and counts per wrapped call, aggregated in memory.

    Each wrapper opens a span on entry and closes it on exit; a span's self
    time is its duration minus the durations of the spans opened inside it.
    """

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.durations = []  # of each P99_SPAN call
        self.stack = []

    def _close(self, name, t0):
        dt = time.perf_counter() - t0
        child = self.stack.pop()
        self.self_s[name] += dt - child
        self.calls[name] += 1
        if self.stack:
            self.stack[-1] += dt
        return dt

    def wrap(self, name, fn, observe=None):
        @wraps(fn)
        def traced(*args, **kwargs):
            self.stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = self._close(name, t0)
            if name == P99_SPAN:
                self.durations.append(dt)
            if observe is not None:
                observe(result)
            return result

        return traced

    def wrap_iter(self, name, fn):
        """Span around each step of a generator, counting the items."""

        @wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                self.stack.append(0.0)
                t0 = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(name, t0)
                self.counts[name] += 1
                yield item

        return traced

    def install(self, se):
        """Wrap the names the pipeline calls; returns the undo list."""
        undo = []

        def patch(module, attr, name, observe=None, iterate=False):
            fn = getattr(module, attr)
            undo.append((module, attr, fn))
            wrapped = self.wrap_iter(name, fn) if iterate else self.wrap(name, fn, observe)
            setattr(module, attr, wrapped)

        def on_matches(result):
            self.counts["patterns.matches"] += len(result)

        def on_chi(result):
            self.counts["coloring.nodes"] += result.nodes
            self.counts["coloring.nodes_max"] = max(self.counts["coloring.nodes_max"], result.nodes)
            self.counts["coloring.timeouts"] += result.status == "TIMEOUT"
            # nodes stay 0 exactly when the greedy bracket closed at once
            self.counts["coloring.searched"] += result.nodes > 0

        def on_k(result):
            self.counts["coloring.k_colorable_unsat"] += result.status == "UNSAT"

        v = se.verify
        for attr in ("parse_graph6", "to_graph6", "is_connected", "build_conflict_graph",
                     "ore_degree", "mad_exact", "classify", "apply_rules", "audit_negative",
                     "builtin_ruleset", "initial_charges", "report_to_json"):
            fn = getattr(v, attr)
            patch(v, attr, f"{fn.__module__.rsplit('.', 1)[1]}.{attr}")
        patch(v, "find_configurations", P99_SPAN, on_matches)
        patch(v, "chi_s_exact", "coloring.chi_s_exact", on_chi)
        patch(v, "verify_theorem", "verify.self")
        patch(se.coloring, "k_colorable", "coloring.k_colorable", on_k)
        patch(se.graph, "to_graph6", "graph.to_graph6")
        patch(se.smallgraphs, "enumerate_connected", "smallgraphs.enumerate", iterate=True)
        return undo

    def metrics(self, scale, overhead_s):
        def per_pass(x):
            return x * scale

        s, c, n = self.self_s, self.calls, self.counts
        durations = sorted(self.durations)
        p99 = durations[max(0, -(-99 * len(durations) // 100) - 1)] if durations else 0.0
        chi_calls = c["coloring.chi_s_exact"]
        values = {
            "patterns.find_configurations_p99_ms": p99 * 1000,
            "patterns.matches": per_pass(n["patterns.matches"]),
            "metrics.mad_exact_calls": per_pass(c["metrics.mad_exact"]),
            "coloring.k_colorable_calls": per_pass(c["coloring.k_colorable"]),
            "coloring.k_colorable_unsat": per_pass(n["coloring.k_colorable_unsat"]),
            "coloring.nodes": per_pass(n["coloring.nodes"]),
            "coloring.nodes_max": n["coloring.nodes_max"],
            "coloring.timeouts": per_pass(n["coloring.timeouts"]),
            "coloring.search_frac": n["coloring.searched"] / chi_calls if chi_calls else 0.0,
            "smallgraphs.graphs": per_pass(n["smallgraphs.enumerate"]),
            "trace.overhead_s": overhead_s,
        }
        for name in PER_LAYER:
            if name not in values:
                values[name] = per_pass(s[name[: -len("_s")]])
        return {name: values[name] for name in PER_LAYER}


def run_rounds(workload, seconds, tracer=None):
    """Run rounds in the workload's order until the next one would end
    after `seconds` (at least one round).  With a tracer, each round runs
    untraced and then traced, so that drift in machine speed cancels out of
    the difference.  Returns the phase duration and, per round, its spec,
    its untraced seconds, its failed count and (traced) its traced seconds."""
    rounds = []
    start = time.perf_counter()
    for spec in cycle(workload.order):
        t0 = time.perf_counter()
        out = workload.run(spec)
        dt = time.perf_counter() - t0
        bad = workload.failed(spec, out)
        traced_dt = None
        if tracer is not None:
            undo = tracer.install(workload.se)
            try:
                t0 = time.perf_counter()
                out = workload.run(spec)
                traced_dt = time.perf_counter() - t0
            finally:
                for module, attr, fn in reversed(undo):
                    setattr(module, attr, fn)
            bad += workload.failed(spec, out)
        rounds.append((spec, dt, bad, traced_dt))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(rounds) > seconds:
            break
    return time.perf_counter() - start, rounds


def measure_setup(args):
    """Median wall time of fresh interpreters that import and set up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def result_line(correct, attempted, failed, values, units):
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def run_one(args):
    se = import_strongedge()
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    workload = WORKLOAD_CLASSES[args.workload](se, expected, args.seed)
    if args.setup_only:
        return 0

    if not args.trace:
        setup_s = measure_setup(args)
        duration, rounds = run_rounds(workload, args.seconds)
        attempted = sum(workload.size(spec) for spec, *_ in rounds)
        failed = sum(bad for _, _, bad, _ in rounds)
        times = [dt for _, dt, _, _ in rounds]
        values = {
            "wall_s": statistics.median(times) * workload.pass_rounds,
            "graphs_per_s": (attempted - failed) / sum(times),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        print(f"{args.workload}: {len(rounds)} rounds in {duration:.3f} s, "
              f"{attempted} graphs attempted, {failed} failed, "
              f"failed_frac = {failed / attempted:.6g}")
        print("  round seconds: " + " ".join(f"{dt:.4f}" for dt in times))
    else:
        tracer = Tracer()
        _, rounds = run_rounds(workload, args.seconds, tracer)
        attempted = 2 * sum(workload.size(spec) for spec, *_ in rounds)
        failed = sum(bad for _, _, bad, _ in rounds)
        scale = workload.pass_rounds / len(rounds)
        overhead = sum(traced - dt for _, dt, _, traced in rounds) * scale
        values = tracer.metrics(scale, overhead)
        units = PER_LAYER
        print(f"{args.workload}: {len(rounds)} rounds, each untraced then traced, "
              f"{attempted} graphs attempted, {failed} failed")
    for name, value in values.items():
        print(f"  {args.workload}.{name} = {value:.6g} {units[name]}")
    print(result_line(failed == 0, attempted, failed, values, units))
    return 0


def run_all(args):
    """Each workload in its own interpreter, one after the other."""
    correct, attempted, failed, values, units = True, 0, 0, {}, {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        res = json.loads(lines[-1])
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        for k, m in res["metrics"].items():
            values[f"{name}.{k}"] = m["value"]
            units[f"{name}.{k}"] = m["unit"]
    print(result_line(correct, attempted, failed, values, units))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
