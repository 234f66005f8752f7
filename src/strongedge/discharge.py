"""Exact-rational charge accounting driven by declarative transfer rules.

Vertices start with charge degree minus a rational target; rules then move
fixed rational amounts from sender classes to neighboring receiver classes.
The engine logs every transfer, preserves the total exactly (Fraction
arithmetic throughout, never floats), and can audit the vertices left
negative by pointing at the catalog structures found in their closed
neighborhoods.  The audit reads the matches its caller already found
(`patterns.find_configurations`); this module never runs the matcher.
Whom one application of a rule pays is decided by `receivers` alone.
"""

from __future__ import annotations

import enum
import json
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from .classes import (
    THETA7_3C,
    THETA7_DEG3,
    THETA8_DEG3,
    THETA8_DEG4,
    ClassLabel,
    Scheme,
    scheme_labels,
)


class Arity(enum.Enum):
    ALL_MATCHING = "ALL_MATCHING"
    ONE_DESIGNATED = "ONE_DESIGNATED"


class DischargeRule(NamedTuple):
    id: str
    sender: frozenset  # labels that send
    receiver: frozenset  # neighbor labels eligible to receive
    amount: Fraction
    arity: Arity = Arity.ALL_MATCHING
    avoid: frozenset = frozenset()  # ONE_DESIGNATED: dispreferred labels


class ChargeLedger(NamedTuple):
    initial: dict  # vertex -> Fraction
    final: dict  # vertex -> Fraction
    transfers: tuple  # (rule id, sender, receiver, Fraction), canonical order


class AuditRecord(NamedTuple):
    vertex: int
    final: Fraction
    patterns: tuple  # catalog pattern ids found in the closed neighborhood


def _exact(x, what):
    """x as a Fraction; a float or bool is refused, since a binary float
    is rarely the rational it was written as (3.09 becomes p / 2**48)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (bool, float)):
        raise ValueError(
            f"{what} must be exact (an int, a Fraction or a \"p/q\" "
            f"string), got {x!r}"
        )
    return Fraction(x)


def initial_charges(g, target):
    """Charge degree(v) minus target for every vertex, as Fractions.

    The target is an int, a Fraction or a "p/q" string; a float or bool
    raises ValueError.  Vertices of equal degree share one Fraction.
    """
    target = _exact(target, "target")
    by_degree = {}
    charges = {}
    for v, d in enumerate(g.degrees()):
        c = by_degree.get(d)
        if c is None:
            c = by_degree[d] = d - target
        charges[v] = c
    return charges


_L = ClassLabel

_THETA7_RULES = (
    DischargeRule(
        "T7.R1a", frozenset({_L.DEG4}), frozenset({_L.DEG2}),
        Fraction(6, 11),
    ),
    DischargeRule(
        "T7.R1b", frozenset({_L.DEG4}), THETA7_DEG3, Fraction(4, 33)
    ),
    DischargeRule(
        "T7.R2", frozenset({_L.DEG3B}), THETA7_DEG3, Fraction(1, 22)
    ),
    DischargeRule(
        "T7.R3",
        frozenset({_L.DEG3C_STRONG}),
        THETA7_DEG3,
        Fraction(5, 132),
        Arity.ONE_DESIGNATED,
        frozenset({_L.DEG3B}),
    ),
    DischargeRule(
        "T7.R4",
        frozenset({_L.DEG3C_MODERATE}),
        THETA7_DEG3,
        Fraction(1, 33),
        Arity.ONE_DESIGNATED,
        THETA7_3C,
    ),
    DischargeRule(
        "T7.R5", frozenset({_L.DEG3C_WEAK}), frozenset({_L.DEG3D}),
        Fraction(1, 66),
    ),
)

_THETA8_RULES = (
    DischargeRule(
        "T8.R1a", frozenset({_L.DEG5}), frozenset({_L.DEG3B_WEAK}),
        Fraction(10, 31),
    ),
    DischargeRule(
        "T8.R1b",
        frozenset({_L.DEG5}),
        frozenset({_L.DEG3A, _L.DEG3B_STRONG, _L.DEG3C, _L.DEG3D}),
        Fraction(8, 31),
    ),
    DischargeRule(
        "T8.R2", frozenset({_L.DEG4A}), THETA8_DEG4, Fraction(11, 124)
    ),
    DischargeRule(
        "T8.R3a", frozenset({_L.DEG4B}), THETA8_DEG3, Fraction(8, 31)
    ),
    DischargeRule(
        "T8.R3b", frozenset({_L.DEG4B}), THETA8_DEG4, Fraction(1, 31)
    ),
    DischargeRule(
        "T8.R4a", frozenset({_L.DEG4C_STRONG}), frozenset({_L.DEG3C}),
        Fraction(7, 31),
    ),
    DischargeRule(
        "T8.R4b",
        frozenset({_L.DEG4C_STRONG}),
        frozenset({_L.DEG3B_STRONG}),
        Fraction(4, 31),
    ),
    DischargeRule(
        "T8.R5", frozenset({_L.DEG4C_WEAK}), frozenset({_L.DEG3C}),
        Fraction(6, 31),
    ),
    DischargeRule(
        "T8.R6", frozenset({_L.DEG4D}), frozenset({_L.DEG3B_STRONG}),
        Fraction(4, 31),
    ),
)


def builtin_ruleset(scheme):
    """The fixed transfer rules for a scheme."""
    if scheme == Scheme.THETA7:
        return list(_THETA7_RULES)
    if scheme == Scheme.THETA8:
        return list(_THETA8_RULES)
    raise ValueError(f"unknown scheme {scheme!r}")


def _validate_rules(rules, scheme):
    allowed = scheme_labels(scheme)
    for rule in rules:
        stray = (rule.sender | rule.receiver | rule.avoid) - allowed
        if stray:
            names = ", ".join(sorted(lab.value for lab in stray))
            raise ValueError(
                f"rule {rule.id!r} references classes outside "
                f"{scheme.value}: {names}"
            )


def receivers(rule, labels):
    """Positions in `labels` that one application of `rule` pays.

    `labels` holds a sender's neighbor labels in id order, None for an
    unlabeled one; a position is eligible when its label is among the
    rule's receiver classes.  ALL_MATCHING pays every eligible position.
    ONE_DESIGNATED pays one: the sole eligible position outside the avoid
    classes if exactly one exists, otherwise the first eligible position
    (a fixed, deterministic tie-break).  No eligible position, no payment.
    """
    eligible = [i for i, lab in enumerate(labels) if lab in rule.receiver]
    if rule.arity is Arity.ALL_MATCHING or not eligible:
        return eligible
    free = [i for i in eligible if labels[i] not in rule.avoid]
    return free if len(free) == 1 else eligible[:1]


def apply_rules(g, labels, rules, charges):
    """Run the rules once from the initial charge map; returns the ledger.

    Unlabeled (UNCLASSIFIED) vertices never send and never receive: no
    rule class matches them.  Rules are not checked against a scheme
    here; `load_ruleset` checks those that come from outside.  Charges
    are read as `initial_charges` reads its target: a float or bool one
    raises ValueError.

    The transfer log is sorted by (rule id, sender, receiver), so equal
    inputs always produce byte-equal ledgers.
    """
    initial = {}
    for v in range(g.n):
        c = charges[v]
        initial[v] = c if isinstance(c, Fraction) else _exact(c, f"charge {v}")
    final = dict(initial)
    transfers = []
    for rule in rules:
        for v in range(g.n):
            if labels.get(v) not in rule.sender:
                continue
            near = g.neighbors(v)
            for i in receivers(rule, [labels.get(u) for u in near]):
                u = near[i]
                final[v] -= rule.amount
                final[u] += rule.amount
                transfers.append((rule.id, v, u, rule.amount))
    transfers.sort(key=lambda t: (t[0], t[1], t[2]))
    # sum(final) == sum(initial), summed over the vertices that changed: a
    # vertex still holding its initial object adds exactly 0
    assert sum(
        final[v] - initial[v] for v in final if final[v] is not initial[v]
    ) == 0, "transfers must conserve total charge"
    return ChargeLedger(initial, final, tuple(transfers))


def audit_negative(ledger, g, matches):
    """Vertices with negative final charge, each tied to nearby catalog hits.

    For every vertex whose final charge is below zero, report the ids of
    catalog patterns matched somewhere inside its closed neighborhood,
    that is, patterns with a match that places some slot on the vertex or
    on one of its neighbors.  A nonempty pattern list names the local
    structures responsible; an empty list means the negativity has no
    cataloged explanation.  `matches` is the find_configurations result
    for g under the ledger's labels and scheme.  The matches are indexed
    by host vertex once, so each negative vertex reads only its closed
    neighborhood.  The ids found at each host vertex are kept as one bitmask
    over the sorted distinct ids, and each distinct closed-neighborhood mask
    is spelt out as its id tuple once per call.
    """
    # a Fraction is negative exactly when its numerator is
    negatives = sorted(
        v for v, charge in ledger.final.items() if charge.numerator < 0
    )
    if not negatives:
        return []
    ids = sorted({m.pattern_id for m in matches})
    bit = {pid: 1 << i for i, pid in enumerate(ids)}
    hits_at = {}  # host vertex -> bitmask of the ids matched on it
    for m in matches:
        b = bit[m.pattern_id]
        for _, h in m.assignment:
            hits_at[h] = hits_at.get(h, 0) | b
    named = {}  # closed-neighborhood mask -> its sorted id tuple
    records = []
    for v in negatives:
        mask = hits_at.get(v, 0)
        for u in g.neighbors(v):
            mask |= hits_at.get(u, 0)
        found = named.get(mask)
        if found is None:
            found = named[mask] = tuple(
                pid for i, pid in enumerate(ids) if mask >> i & 1
            )
        records.append(AuditRecord(v, ledger.final[v], found))
    return records


def load_ruleset(source, scheme):
    """Parse a JSON rule file and validate it against a scheme.

    The file holds an array of objects with fields:

    * ``id``: unique rule name,
    * ``sender`` and ``receiver``: arrays of class label strings
      (the same spellings the classifier reports, e.g. ``"3C_weak"``),
    * ``amount``: a positive rational as a ``"p/q"`` string or an integer,
    * ``arity`` (optional): ``"ALL_MATCHING"`` (default) or
      ``"ONE_DESIGNATED"``,
    * ``avoid`` (optional): class array, only meaningful with
      ``ONE_DESIGNATED``.

    Any unknown class, class outside the scheme, malformed amount,
    duplicate id, or JSON nested too deeply to parse raises ValueError.
    """
    if hasattr(source, "read"):
        name, text = getattr(source, "name", "ruleset"), source.read()
    else:
        name, text = str(source), Path(source).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError(f"{name}: JSON nested too deeply") from None
    if not isinstance(data, list):
        raise ValueError("ruleset file must hold a JSON array of rules")
    rules = []
    seen_ids = set()
    for i, item in enumerate(data):
        if not isinstance(item, dict):
            raise ValueError(f"rule {i}: expected an object")
        try:
            rid = item["id"]
            sender = item["sender"]
            receiver = item["receiver"]
            amount = item["amount"]
        except KeyError as exc:
            raise ValueError(f"rule {i}: missing field {exc}") from None
        if not isinstance(rid, str) or not rid:
            raise ValueError(f"rule {i}: id must be a nonempty string")
        if rid in seen_ids:
            raise ValueError(f"rule {rid!r}: duplicate id")
        seen_ids.add(rid)

        def classes(field, value, rid=rid):
            if not isinstance(value, list) or not value:
                raise ValueError(
                    f"rule {rid!r}: {field} must be a nonempty array"
                )
            out = set()
            for name in value:
                try:
                    out.add(ClassLabel(name))
                except ValueError:
                    raise ValueError(
                        f"rule {rid!r}: unknown class {name!r}"
                    ) from None
            return frozenset(out)

        sender = classes("sender", sender)
        receiver = classes("receiver", receiver)
        try:
            if type(amount) not in (int, str):  # a JSON float or bool is inexact
                raise TypeError
            amount = Fraction(amount)
        except (ValueError, ZeroDivisionError, TypeError):
            raise ValueError(
                f"rule {rid!r}: amount must be a rational like \"5/132\""
            ) from None
        if amount <= 0:
            raise ValueError(f"rule {rid!r}: amount must be positive")
        arity_name = item.get("arity", Arity.ALL_MATCHING.value)
        try:
            arity = Arity(arity_name)
        except ValueError:
            raise ValueError(
                f"rule {rid!r}: unknown arity {arity_name!r}"
            ) from None
        avoid = (
            classes("avoid", item["avoid"])
            if "avoid" in item
            else frozenset()
        )
        rules.append(DischargeRule(rid, sender, receiver, amount, arity, avoid))
    _validate_rules(rules, scheme)
    return rules
