"""Theorem verification over graph corpora, with machine-readable reports.

The two theorems under test are the universal statements that
`classes.THEOREMS` tabulates: at most the cap in Ore degree and below the
scheme's mad target, the strong chromatic index is at most the palette.  A
run filters the corpus down to the graphs the hypothesis admits, computes
the exact index of each, and additionally records two structural facts the
argument predicts: at least one catalog configuration is present
(unavoidability), and the discharge audit of any negative final charges.

Graphs that exhaust their time budget are reported as timeouts, never as
failures, and never abort the run.  Reports serialize to versioned JSON
with rationals as {num, den} (`_frac`, the package's one rational encoder);
a rerun on the same corpus differs at most in the wall-time field.  The
layout is that of ``json.dumps(doc, indent=2)``, but only the report's head
goes through json.dumps: the filtered list, the records and their audit
rows are written from fixed templates, with strings escaped by json's own
C escaper, because json.dumps runs its pure-Python encoder whenever an
indent is set.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import NamedTuple

from .classes import THEOREMS, classify, scheme_target
from .coloring import chi_s_exact
from .discharge import apply_rules, audit_negative, builtin_ruleset, initial_charges
# parse_graph6 is unused here, but bench/run.py traces it under this name
from .graph import build_conflict_graph, is_connected, parse_graph6, to_graph6  # noqa: F401
from .metrics import mad_exact, ore_degree
from .patterns import find_configurations

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


def _scheme_stages(g, scheme, rules):
    """(matches, ledger, negatives): classify g, find the catalog's
    configurations, run `rules` from the charges of the scheme's mad
    target, and audit the vertices left negative."""
    labels = classify(g, scheme).labels
    matches = find_configurations(g, scheme, labels)
    ledger = apply_rules(
        g, labels, rules, initial_charges(g, scheme_target(scheme))
    )
    return matches, ledger, tuple(audit_negative(ledger, g, matches))


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

    matches, _, negatives = _scheme_stages(g, scheme, builtin_ruleset(scheme))
    found = tuple(sorted({m.pattern_id for m in matches}))

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
    or get a full record.  `jobs` sizes the worker pool, at most the
    available parallelism (the default); the result does not depend on it.
    """
    # bool and float keys equal to 1 or 2 pass a bare `in`, so check the type
    if type(which) is not int or which not in THEOREMS:
        raise ValueError(f"theorem must be 1 or 2, got {which!r}")
    scheme, _, bound = THEOREMS[which]
    start = time.monotonic()

    rejected = 0
    tasks = []
    for g in corpus:
        if not is_connected(g):
            rejected += 1
            continue
        tasks.append((g, which, budget))

    cpus = os.cpu_count() or 1
    jobs = min(cpus if jobs is None else jobs, cpus, len(tasks))
    if jobs > 1:
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
    # a Fraction or an int already holds its lowest terms
    return {"num": x.numerator, "den": x.denominator}


def _json_scalar(x):
    """An int, bool or None spelt as json.dumps spells it."""
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    return "%d" % x


def _array(items, indent):
    """A JSON array of rendered items, laid out as json.dumps(indent=2) lays
    out an array whose opening line is indented by `indent` spaces."""
    if not items:
        return "[]"
    pad = "\n" + " " * (indent + 2)
    return "[" + pad + ("," + pad).join(items) + "\n" + " " * indent + "]"


def _strings(items, indent):
    # the C escaper json.dumps itself uses under its default ensure_ascii
    return _array([encode_basestring_ascii(s) for s in items], indent)


def _rational(x, indent):
    f = _frac(x)
    pad = " " * indent
    return '{\n%s  "num": %d,\n%s  "den": %d\n%s}' % (
        pad, f["num"], pad, f["den"], pad,
    )


_RECORD = """{
      "graph6": %s,
      "theta": %d,
      "mad": %s,
      "chi_s": %s,
      "bound": %d,
      "pass": %s,
      "timeout": %s,
      "configurations_found": %s,
      "discharge_negatives": %s
    }"""

_NEGATIVE = """{
          "vertex": %d,
          "final": %s,
          "patterns": %s
        }"""


def report_to_json(report):
    """Serialize a report deterministically (field order fixed).

    The text is the report's document in ``json.dumps(doc, indent=2)``'s
    layout plus a final newline; past the head it comes from the templates
    above, one per record and per audit row.
    """
    head = json.dumps(
        {
            "schema": SCHEMA,
            "theorem": report.theorem,
            "bound": report.bound,
            "target": _frac(report.target),
            "corpus": report.corpus,
            "version": report.version,
            "wall_ms": report.wall_ms,
            "summary": report.summary,
        },
        indent=2,
    )
    records = [
        _RECORD % (
            encode_basestring_ascii(r.graph6),
            r.theta,
            _rational(r.mad, 6),
            _json_scalar(r.chi_s),
            r.bound,
            _json_scalar(r.passed),
            _json_scalar(r.timeout),
            _strings(r.configurations_found, 6),
            _array(
                [
                    _NEGATIVE
                    % (a.vertex, _rational(a.final, 10), _strings(a.patterns, 10))
                    for a in r.discharge_negatives
                ],
                6,
            ),
        )
        for r in report.records
    ]
    # the head ends in "\n}"; the last two keys continue its object
    return (
        head[:-2]
        + ',\n  "filtered": '
        + _strings(report.filtered, 2)
        + ',\n  "records": '
        + _array(records, 2)
        + "\n}\n"
    )


def emit_report(report, path):
    """Write the JSON serialization of a report to a file."""
    Path(path).write_text(report_to_json(report), encoding="utf-8")
