"""Theorem verification over graph corpora, with machine-readable reports.

The two theorems under test are universal statements: below a mad threshold,
the strong chromatic index is at most a fixed bound (34/11 and 13 for
degree-sum 7; 113/31 and 20 for degree-sum 8).  A run filters the corpus
down to the graphs the hypothesis admits, computes the exact index of each,
and additionally records two structural facts the argument predicts: at
least one catalog configuration is present (unavoidability), and the
discharge audit of any negative final charges.

Graphs that exhaust their time budget are reported as timeouts, never as
failures, and never abort the run.  Reports serialize to versioned JSON
with rationals as {num, den}; a rerun on the same corpus differs at most
in the wall-time field.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from .classes import Scheme, classify, scheme_target
from .coloring import chi_s_exact
from .discharge import apply_rules, audit_negative, builtin_ruleset, initial_charges
# parse_graph6 is unused here, but bench/run.py traces it under this name
from .graph import build_conflict_graph, is_connected, parse_graph6, to_graph6  # noqa: F401
from .metrics import mad_exact, ore_degree
from .patterns import find_configurations

THEOREMS = {
    1: (Scheme.THETA7, 7, 13),
    2: (Scheme.THETA8, 8, 20),
}

SCHEMA = "strongedge-report/1"


class GraphRecord(NamedTuple):
    graph6: str
    theta: int
    mad: Fraction
    chi_s: object  # int, or None on timeout
    bound: int
    passed: object  # bool, or None on timeout
    timeout: bool
    configurations_found: tuple  # distinct pattern ids, sorted
    discharge_negatives: tuple  # AuditRecord per negative vertex


class VerificationReport(NamedTuple):
    theorem: int
    bound: int
    target: Fraction
    corpus: str
    records: tuple  # GraphRecord, graph6 ascending
    filtered: tuple  # graph6 of connected graphs the hypothesis excludes
    rejected_disconnected: int
    summary: dict
    version: str
    wall_ms: int


def _check_one(task):
    """Full pipeline for one connected graph; picklable for worker pools."""
    g, which, budget = task
    scheme, theta_cap, bound = THEOREMS[which]
    g6 = to_graph6(g)
    # hypothesis filter; edgeless graphs have no Ore degree and no edges
    # to color, so they are excluded rather than passed vacuously
    if g.m == 0:
        return ("filtered", g6)
    theta = ore_degree(g)
    if theta > theta_cap:
        return ("filtered", g6)
    mad, _ = mad_exact(g)
    if mad >= scheme_target(scheme):
        return ("filtered", g6)

    labels = classify(g, scheme).labels
    matches = find_configurations(g, scheme, labels)
    found = tuple(sorted({m.pattern_id for m in matches}))
    ledger = apply_rules(
        g,
        labels,
        builtin_ruleset(scheme),
        initial_charges(g, scheme_target(scheme)),
    )
    negatives = tuple(audit_negative(ledger, g, labels, scheme, matches))

    res = chi_s_exact(build_conflict_graph(g), time_budget=budget)
    if res.status == "TIMEOUT":
        rec = GraphRecord(g6, theta, mad, None, bound, None, True, found, negatives)
    else:
        rec = GraphRecord(
            g6, theta, mad, res.value, bound, res.value <= bound, False,
            found, negatives,
        )
    return ("record", rec)


def verify_theorem(which, corpus, budget=10.0, jobs=None, descriptor=""):
    """Run one theorem's pipeline over a corpus of graphs.

    Disconnected graphs are rejected up front (counted in the report);
    connected ones either fail the hypothesis filter (listed as filtered)
    or get a full record.  `jobs` sizes the worker pool; the default is
    the available parallelism, and the result does not depend on it.
    """
    if which not in THEOREMS:
        raise ValueError(f"theorem must be 1 or 2, got {which!r}")
    _, _, bound = THEOREMS[which]
    scheme = THEOREMS[which][0]
    start = time.monotonic()

    rejected = 0
    tasks = []
    for g in corpus:
        if not is_connected(g):
            rejected += 1
            continue
        tasks.append((g, which, budget))

    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs > 1 and len(tasks) > 1:
        with multiprocessing.Pool(jobs) as pool:
            results = pool.map(_check_one, tasks)
    else:
        results = [_check_one(t) for t in tasks]

    records = sorted(
        (r for kind, r in results if kind == "record"),
        key=lambda r: r.graph6,
    )
    filtered = sorted(g6 for kind, g6 in results if kind == "filtered")
    summary = {
        "corpus_size": len(tasks) + rejected,
        "rejected_disconnected": rejected,
        "filtered": len(filtered),
        "admitted": len(records),
        "passes": sum(1 for r in records if r.passed is True),
        "failures": sum(1 for r in records if r.passed is False),
        "timeouts": sum(1 for r in records if r.timeout),
    }
    from . import __version__

    return VerificationReport(
        which,
        bound,
        scheme_target(scheme),
        descriptor,
        tuple(records),
        tuple(filtered),
        rejected,
        summary,
        __version__,
        int((time.monotonic() - start) * 1000),
    )


def _frac(x):
    f = Fraction(x)
    return {"num": f.numerator, "den": f.denominator}


def report_to_json(report):
    """Serialize a report deterministically (field order fixed)."""
    records = []
    for r in report.records:
        records.append(
            {
                "graph6": r.graph6,
                "theta": r.theta,
                "mad": _frac(r.mad),
                "chi_s": r.chi_s,
                "bound": r.bound,
                "pass": r.passed,
                "timeout": r.timeout,
                "configurations_found": list(r.configurations_found),
                "discharge_negatives": [
                    {
                        "vertex": a.vertex,
                        "final": _frac(a.final),
                        "patterns": list(a.patterns),
                    }
                    for a in r.discharge_negatives
                ],
            }
        )
    doc = {
        "schema": SCHEMA,
        "theorem": report.theorem,
        "bound": report.bound,
        "target": _frac(report.target),
        "corpus": report.corpus,
        "version": report.version,
        "wall_ms": report.wall_ms,
        "summary": report.summary,
        "filtered": list(report.filtered),
        "records": records,
    }
    return json.dumps(doc, indent=2) + "\n"


def emit_report(report, path):
    """Write the JSON serialization of a report to a file."""
    Path(path).write_text(report_to_json(report), encoding="utf-8")
