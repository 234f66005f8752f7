"""Command-line front end.

Subcommands: metrics, color, check, configs, discharge, verify.  Inputs are
single graphs in graph6 or edge-list files (inferred from the .g6/.edges
extension, or forced with --format); verify instead takes a corpus, either
the built-in connected-graph enumerator (--max-n) or a graph6 file with one
graph per line (--corpus).  All output is JSON, to stdout or --out.

Exit codes: 0 success, 2 a checked property failed (a theorem failure in
verify, an invalid coloring in check), 3 configuration errors (bad
arguments, unreadable or malformed files, out-of-scheme rule sets).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from itertools import chain
from pathlib import Path

from .classes import Scheme, classify, scheme_target
from .coloring import (
    PartialColoring,
    chi_s_exact,
    is_valid_strong_coloring,
    k_colorable,
)
from .discharge import builtin_ruleset, load_ruleset
from .graph import build_conflict_graph, parse_edge_list, parse_graph6
from .metrics import mad_exact, ore_degree
from .patterns import find_configurations, verify_reducibility
from .smallgraphs import MAX_N, enumerate_connected
from .verify import _frac, _scheme_stages, report_to_json, verify_theorem


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; spec reserves 2 for real failures
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(3)


def _read_graph(args):
    path = Path(args.file)
    fmt = args.format
    if fmt is None:
        if path.suffix == ".g6":
            fmt = "graph6"
        elif path.suffix == ".edges":
            fmt = "edges"
        else:
            raise ValueError(
                f"cannot infer format from {path.name!r}; pass --format"
            )
    if fmt == "edges":
        return parse_edge_list(path.read_text(encoding="utf-8"))
    return _read_graph6(path, one=True)[0]


def _read_graph6(path, one=False):
    """The graphs of a graph6 file, one per nonblank line.

    With `one`, the file must hold exactly one such line, counted before
    any is parsed.  A malformed line's error names the file and the line's
    1-based number.
    """
    lines = [
        (lineno, ln)
        for lineno, ln in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        )
        if ln.strip()
    ]
    if one and len(lines) != 1:
        raise ValueError(
            f"{path.name}: expected exactly one graph6 line, found {len(lines)}"
        )
    graphs = []
    for lineno, ln in lines:
        try:
            graphs.append(parse_graph6(ln))
        except ValueError as exc:
            raise ValueError(f"{path.name}: line {lineno}: {exc}") from None
    return graphs


def _emit(doc, out):
    _write(json.dumps(doc, indent=2) + "\n", out)


def _write(text, out):
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _coloring_json(g, coloring):
    if coloring is None:
        return []
    return [
        {"edge": list(g.endpoints(e)), "color": coloring.colors[e]}
        for e in coloring.assigned()
    ]


def _cmd_metrics(args):
    g = _read_graph(args)
    doc = {
        "n": g.n,
        "m": g.m,
        "delta": g.max_degree(),
        "theta": ore_degree(g) if g.m else None,
    }
    if g.m:
        value, witness = mad_exact(g)
        doc["mad"] = {**_frac(value), "witness": list(witness)}
    else:
        doc["mad"] = None
    for scheme in Scheme:
        labels = classify(g, scheme).labels
        doc[f"classes_{scheme.value}"] = {
            str(v): labels[v].value for v in range(g.n)
        }
    _emit(doc, args.out)
    return 0


def _cmd_color(args):
    if args.k is not None and args.exact:
        raise ValueError("--k and --exact are mutually exclusive")
    g = _read_graph(args)
    cg = build_conflict_graph(g)
    if args.k is not None:
        res = k_colorable(cg, args.k, time_budget=args.budget)
        sat = {"SAT": True, "UNSAT": False, "TIMEOUT": None}[res.status]
        doc = {
            "sat": sat,
            "coloring": _coloring_json(g, res.coloring),
            "stats": {"nodes": res.nodes, "time_ms": res.time_ms},
        }
    else:
        start = time.monotonic()
        res = chi_s_exact(cg, time_budget=args.budget)
        doc = {
            "chi_s": res.value,
            "coloring": _coloring_json(g, res.coloring),
            "stats": {
                "nodes": res.nodes,
                "time_ms": int((time.monotonic() - start) * 1000),
            },
        }
    _emit(doc, args.out)
    return 0


def _cmd_check(args):
    g = _read_graph(args)
    try:
        data = json.loads(Path(args.coloring).read_text(encoding="utf-8"))
    except RecursionError:
        raise ValueError(f"{args.coloring}: JSON nested too deeply") from None
    k = None
    if isinstance(data, dict):
        k = data.get("k")
        data = data.get("coloring")
    if not isinstance(data, list):
        raise ValueError("coloring file must hold a list of {edge, color}")
    colors = [None] * g.m
    for item in data:
        try:
            u, v = item["edge"]
            c = item["color"]
        except (KeyError, TypeError, ValueError):
            raise ValueError(f"malformed coloring entry: {item!r}") from None
        if type(u) is not int or type(v) is not int:
            raise ValueError(f"edge endpoints must be ints: {item!r}")
        try:
            e = g.edge_id(u, v)
        except KeyError:
            raise ValueError(f"({u}, {v}) is not an edge of the graph") from None
        if colors[e] is not None:
            raise ValueError(f"edge ({u}, {v}) colored twice")
        colors[e] = c
    if k is None:
        # Colors that are not ints are left for PartialColoring to reject.
        k = max((c for c in colors if type(c) is int), default=0)
    ok, violations = is_valid_strong_coloring(
        build_conflict_graph(g), PartialColoring(k, colors)
    )
    doc = {
        "valid": ok,
        "violations": [
            {
                "edge": list(g.endpoints(e)),
                "edge2": list(g.endpoints(e2)),
                "color": c,
            }
            for e, e2, c in violations
        ],
    }
    _emit(doc, args.out)
    return 0 if ok else 2


def _bound_json(b):
    return {
        "edge": list(b.edge),
        "phase": b.phase,
        "asserted": b.asserted,
        "observed": b.observed,
        "ok": b.ok,
    }


def _cmd_configs(args):
    g = _read_graph(args)
    scheme = Scheme(args.scheme)
    labels = classify(g, scheme).labels
    docs = []
    for m in find_configurations(g, scheme, labels):
        item = {
            "pattern": m.pattern_id,
            "assignment": {slot: host for slot, host in m.assignment},
            "matched_edges": [list(e) for e in m.edge_witnesses],
        }
        if args.verify:
            rep = verify_reducibility(g, m, budget=args.budget)
            item["reducibility"] = {
                "verdict": rep.verdict,
                "k": rep.k,
                "deleted": rep.deleted,
                "erased": [list(e) for e in rep.erased],
                "strategy": rep.strategy,
                "bounds": [_bound_json(b) for b in rep.bounds],
                "bounds_ok": rep.bounds_ok,
                "nodes": rep.nodes,
                "time_ms": rep.time_ms,
            }
        docs.append(item)
    _emit(docs, args.out)
    return 0


def _cmd_discharge(args):
    g = _read_graph(args)
    scheme = Scheme(args.scheme)
    if args.rules:
        rules = load_ruleset(args.rules, scheme)
    else:
        rules = builtin_ruleset(scheme)
    _, ledger, negatives = _scheme_stages(g, scheme, rules)
    doc = {
        "target": _frac(scheme_target(scheme)),
        "sum_initial": _frac(sum(ledger.initial.values())),
        "sum_final": _frac(sum(ledger.final.values())),
        "vertices": [
            {
                "v": v,
                "initial": _frac(ledger.initial[v]),
                "final": _frac(ledger.final[v]),
            }
            for v in range(g.n)
        ],
        "transfers": [
            {"rule": rule, "from": s, "to": r, "amount": _frac(a)}
            for rule, s, r, a in ledger.transfers
        ],
        "negatives": [
            {
                "v": rec.vertex,
                "final": _frac(rec.final),
                "patterns": list(rec.patterns),
            }
            for rec in negatives
        ],
    }
    _emit(doc, args.out)
    return 0


def _cmd_verify(args):
    if args.max_n is not None:
        if not 1 <= args.max_n <= MAX_N:
            raise ValueError(f"--max-n must be in 1..{MAX_N}")
        corpus = chain.from_iterable(
            enumerate_connected(n) for n in range(1, args.max_n + 1)
        )
        descriptor = f"builtin connected graphs n<={args.max_n}"
    else:
        path = Path(args.corpus)
        corpus = _read_graph6(path)
        descriptor = str(path)
    report = verify_theorem(
        args.theorem,
        corpus,
        budget=args.budget,
        jobs=args.jobs,
        descriptor=descriptor,
    )
    _write(report_to_json(report), args.out)
    return 2 if report.summary["failures"] else 0


def _at_least(low, convert):
    """An argparse type: `convert(text)`, refused below `low` or if NaN."""

    def parse(text):
        value = convert(text)
        if not value >= low:
            raise argparse.ArgumentTypeError(f"expected >= {low}, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # argparse names the type in errors
    return parse


def _build_parser():
    parser = _Parser(
        prog="strongedge",
        description="Strong edge-coloring toolkit: exact indices, structure "
        "catalogs, charge redistribution, and theorem verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    schemes = [scheme.value for scheme in Scheme]
    seconds = _at_least(0, float)

    def add_input(p):
        p.add_argument("file", help="input graph file")
        p.add_argument(
            "--format",
            choices=("graph6", "edges"),
            help="input format (default: infer from .g6/.edges)",
        )

    def add_out(p):
        p.add_argument("--out", help="write JSON here instead of stdout")

    p = sub.add_parser("metrics", help="degree, Ore degree, exact mad, classes")
    add_input(p)
    add_out(p)
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("color", help="exact index, or decide a fixed palette")
    add_input(p)
    p.add_argument("--k", type=int, help="decide k-colorability instead")
    p.add_argument(
        "--exact",
        action="store_true",
        help="compute the exact index (default when --k is absent)",
    )
    p.add_argument("--budget", type=seconds, default=10.0, help="seconds")
    add_out(p)
    p.set_defaults(func=_cmd_color)

    p = sub.add_parser("check", help="validate a coloring file")
    add_input(p)
    p.add_argument("--coloring", required=True, help="coloring JSON file")
    add_out(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("configs", help="find catalog configurations")
    add_input(p)
    p.add_argument("--scheme", choices=schemes, required=True)
    p.add_argument(
        "--verify",
        action="store_true",
        help="replay each match's deletion/extension recipe",
    )
    p.add_argument("--budget", type=seconds, default=10.0, help="seconds")
    add_out(p)
    p.set_defaults(func=_cmd_configs)

    p = sub.add_parser("discharge", help="run charge redistribution")
    add_input(p)
    p.add_argument("--scheme", choices=schemes, required=True)
    p.add_argument("--rules", help="custom rule set JSON")
    add_out(p)
    p.set_defaults(func=_cmd_discharge)

    p = sub.add_parser("verify", help="verify a theorem over a corpus")
    p.add_argument("--theorem", type=int, choices=(1, 2), required=True)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--max-n", type=int, help="use builtin enumerator up to n")
    src.add_argument("--corpus", help="graph6 file, one graph per line")
    p.add_argument("--jobs", type=_at_least(1, int), help="worker processes")
    p.add_argument("--budget", type=seconds, default=10.0, help="seconds per graph")
    add_out(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
