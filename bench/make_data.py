"""Write the benchmark's stored corpus and its recorded expected outputs.

Run from the root of a checkout, on the commit whose outputs are the
reference:

    python3 bench/make_data.py

It writes ``bench/corpus_n8.g6`` (every connected graph with n <= 8, one
graph6 line each) and ``bench/expected.json`` (report digests, enumeration
counts and fingerprints, the large pool with its exact indices and solver
node counts, and the machine it ran on).  Takes about two minutes.
"""

from __future__ import annotations

import json
import os
import platform
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

# The paper's counts for the n <= 8 corpus, checked against the sums of the
# batch reports before anything is written.
TOTALS = {
    1: {"corpus_size": 12113, "filtered": 11100, "admitted": 1013,
        "passes": 1013, "failures": 0, "timeouts": 0},
    2: {"corpus_size": 12113, "filtered": 9356, "admitted": 2757,
        "passes": 2757, "failures": 0, "timeouts": 0},
}


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stratified_order(graphs, lines, se):
    """Order the corpus so that ``lines[k::BATCHES]`` are batches of equal
    cost: sort by what decides the pipeline's work (admitted by each
    theorem, Ore degree within each cap, size), then deal the sorted list
    into the batches in a snake, one stratum of BATCHES graphs at a time."""
    admitted = {}
    for theorem in (1, 2):
        report = se.verify.verify_theorem(theorem, graphs, jobs=1)
        admitted[theorem] = {r.graph6 for r in report.records}

    def key(i):
        g, g6 = graphs[i], lines[i]
        ore = se.metrics.ore_degree(g) if g.m else 0
        return (g6 in admitted[2], g6 in admitted[1], ore <= 8, ore <= 7, g.n, g.m, g6)

    ranked = sorted(range(len(graphs)), key=key)
    out = []
    for start in range(0, len(ranked), run.BATCHES):
        stratum = ranked[start:start + run.BATCHES]
        if (start // run.BATCHES) % 2:
            stratum.reverse()
        out.extend(stratum)
    return [lines[i] for i in out]


def main():
    se = run.import_strongedge()

    expected = {
        "machine": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
        }
    }

    by_order = {n: [] for n in range(1, run.CORPUS_MAX_N + 1)}
    graphs, lines = [], []
    for n in by_order:
        for g in se.smallgraphs.enumerate_connected(n):
            by_order[n].append(se.graph.to_graph6(g))
            graphs.append(g)
            lines.append(by_order[n][-1])
    expected["enumerate"] = {
        "counts": {str(n): len(v) for n, v in by_order.items()},
        "fingerprints": {str(n): run.fingerprint(v) for n, v in by_order.items()},
    }

    ordered = stratified_order(graphs, lines, se)
    run.CORPUS.write_text("\n".join(ordered) + "\n", encoding="ascii")
    parsed = [se.graph.parse_graph6(s) for s in ordered]
    digests = {"1": [], "2": []}
    summaries = {"1": [], "2": []}
    for k in range(run.BATCHES):
        for theorem in (1, 2):
            report = se.verify.verify_theorem(
                theorem, parsed[k::run.BATCHES], budget=run.SWEEP_BUDGET, jobs=1
            )
            digests[str(theorem)].append(run.report_digest(se.verify.report_to_json(report)))
            summaries[str(theorem)].append(report.summary)
    for theorem, want in TOTALS.items():
        for field, value in want.items():
            got = sum(s[field] for s in summaries[str(theorem)])
            if got != value:
                raise SystemExit(f"theorem {theorem}: {field} = {got}, expected {value}")
    expected["sweep"] = {
        "batches": run.BATCHES,
        "budget": run.SWEEP_BUDGET,
        "totals": {str(t): v for t, v in TOTALS.items()},
        "digests": digests,
        "summaries": summaries,
    }

    instances = []
    pool = []
    for n, seed in run.large_pool_specs():
        g = se.graph.Graph(*run.random_subcubic(n, random.Random(seed)))
        pool.append(g)
        t0 = time.perf_counter()
        res = se.coloring.chi_s_exact(se.graph.build_conflict_graph(g), run.LARGE_BUDGET)
        seconds = time.perf_counter() - t0
        if res.status != "OK" or res.value > 13:
            raise SystemExit(f"large instance n={n} seed={seed}: {res.status} {res.value}")
        instances.append({"n": n, "seed": seed, "graph6": se.graph.to_graph6(g),
                          "chi_s": res.value, "nodes": res.nodes, "seconds": seconds})
    text = se.verify.report_to_json(
        se.verify.verify_theorem(1, pool, budget=run.LARGE_BUDGET, jobs=1)
    )
    records = {r["graph6"]: r for r in json.loads(text)["records"]}
    for inst in instances:
        rec = records[inst["graph6"]]
        if rec["chi_s"] != inst["chi_s"]:
            raise SystemExit(f"large {inst['graph6']}: report and solver disagree")
        inst["record_sha256"] = run.sha256(json.dumps(rec, sort_keys=True))
    expected["large"] = {
        "budget": run.LARGE_BUDGET,
        "instances": instances,
        "report_digest": run.report_digest(text),
    }

    run.EXPECTED.write_text(json.dumps(expected, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
