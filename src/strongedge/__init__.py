"""Toolkit for strong edge-coloring at desk scale.

A strong edge-coloring gives distinct colors to any two edges that are
incident or joined by a third edge.  This package computes the exact
strong chromatic index, the Ore degree, and the exact maximum average
degree; classifies vertices into the local degree classes two
discharging arguments use; finds and replays the associated catalogs of
reducible configurations; runs exact-rational charge redistribution; and
verifies the two headline bounds exhaustively over small-graph corpora.

All invariants are computed exactly: rationals are `fractions.Fraction`,
never floats.
"""

__version__ = "0.1.0"

from .graph import (
    ConflictGraph,
    Graph,
    Graph6Error,
    build_conflict_graph,
    is_connected,
    parse_edge_list,
    parse_graph6,
    to_graph6,
)
from .metrics import (
    conjectured_bound,
    mad_bruteforce,
    mad_exact,
    mad_upper_bound,
    ore_degree,
)
from .classes import (
    Classification,
    ClassLabel,
    Scheme,
    THEOREMS,
    THETA7_3C,
    THETA7_LABELS,
    THETA8_LABELS,
    base_label,
    classify,
    refine,
    scheme_labels,
    scheme_target,
)
from .coloring import (
    ChiResult,
    ExtendResult,
    ExtensionOutcome,
    PartialColoring,
    SDRResult,
    SetFamily,
    SolveResult,
    available_colors,
    chi_s_exact,
    erase_and_extend,
    greedy_extend,
    hall_sdr,
    is_valid_strong_coloring,
    k_colorable,
)
from .patterns import (
    BoundCheck,
    ConfigurationMatch,
    Pattern,
    PatternVertex,
    ReducibilityReport,
    catalog,
    find_configurations,
    match_satisfies,
    verify_reducibility,
)
from .discharge import (
    Arity,
    AuditRecord,
    ChargeLedger,
    DischargeRule,
    apply_rules,
    audit_negative,
    builtin_ruleset,
    initial_charges,
    load_ruleset,
    receivers,
)
from .smallgraphs import CONNECTED_COUNTS, MAX_N, enumerate_connected
from .verify import (
    GraphRecord,
    SCHEMA,
    VerificationReport,
    emit_report,
    report_to_json,
    verify_theorem,
)

__all__ = [
    "__version__",
    # graph
    "Graph",
    "ConflictGraph",
    "Graph6Error",
    "build_conflict_graph",
    "is_connected",
    "parse_edge_list",
    "parse_graph6",
    "to_graph6",
    # metrics
    "conjectured_bound",
    "mad_bruteforce",
    "mad_exact",
    "mad_upper_bound",
    "ore_degree",
    # classes
    "Classification",
    "ClassLabel",
    "Scheme",
    "THEOREMS",
    "THETA7_3C",
    "THETA7_LABELS",
    "THETA8_LABELS",
    "base_label",
    "classify",
    "refine",
    "scheme_labels",
    "scheme_target",
    # coloring
    "ChiResult",
    "ExtendResult",
    "ExtensionOutcome",
    "PartialColoring",
    "SDRResult",
    "SetFamily",
    "SolveResult",
    "available_colors",
    "chi_s_exact",
    "erase_and_extend",
    "greedy_extend",
    "hall_sdr",
    "is_valid_strong_coloring",
    "k_colorable",
    # patterns
    "BoundCheck",
    "ConfigurationMatch",
    "Pattern",
    "PatternVertex",
    "ReducibilityReport",
    "catalog",
    "find_configurations",
    "match_satisfies",
    "verify_reducibility",
    # discharge
    "Arity",
    "AuditRecord",
    "ChargeLedger",
    "DischargeRule",
    "apply_rules",
    "audit_negative",
    "builtin_ruleset",
    "initial_charges",
    "load_ruleset",
    "receivers",
    # smallgraphs
    "CONNECTED_COUNTS",
    "MAX_N",
    "enumerate_connected",
    # verify
    "GraphRecord",
    "SCHEMA",
    "VerificationReport",
    "emit_report",
    "report_to_json",
    "verify_theorem",
]
