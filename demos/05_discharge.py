"""Walkthrough: exact-rational charge redistribution and auditing.

Run as `python3 demos/05_discharge.py`.  Each vertex starts with charge
d(v) minus the scheme's density target; rules move rational amounts along
edges.  Transfers never create or destroy charge, so the total stays
2m - n*target throughout.
"""

from fractions import Fraction

from strongedge import (
    ClassLabel,
    DischargeRule,
    Graph,
    Scheme,
    apply_rules,
    audit_negative,
    builtin_ruleset,
    classify,
    find_configurations,
    initial_charges,
    scheme_target,
)


def main():
    # Complete bipartite K(3,4): three 4-vertices facing four 3-vertices
    # that each see three 4-neighbors.  The built-in theta7 rules send
    # 4/33 along every edge, and every final charge lands nonnegative.
    k34 = Graph(7, [(a, b) for a in range(3) for b in range(3, 7)])
    target = scheme_target(Scheme.THETA7)
    labels = classify(k34, Scheme.THETA7).labels
    ledger = apply_rules(
        k34, labels, builtin_ruleset(Scheme.THETA7), initial_charges(k34, target)
    )
    print("K(3,4) under theta7, target", target)
    print("transfers:", len(ledger.transfers), "- first three:")
    for t in ledger.transfers[:3]:
        print("   ", t)
    for v in range(k34.n):
        print(f"  vertex {v} ({labels[v].value}): "
              f"{ledger.initial[v]} -> {ledger.final[v]}")
    total = Fraction(2 * k34.m) - k34.n * target
    print("conservation: sum initial", sum(ledger.initial.values()),
          "= sum final", sum(ledger.final.values()), "= 2m - n*target", total)

    # A 5-cycle is too sparse for theta7 vertices to bail each other out:
    # no rule fires and every vertex stays negative.  The audit ties each
    # negative vertex to the catalog configurations sitting on it, which
    # is exactly the contradiction the counting argument needs.
    c5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
    labels5 = classify(c5, Scheme.THETA7).labels
    ledger5 = apply_rules(
        c5, labels5, builtin_ruleset(Scheme.THETA7), initial_charges(c5, target)
    )
    matches = find_configurations(c5, Scheme.THETA7, labels5)
    print("\n5-cycle under theta7:")
    for record in audit_negative(ledger5, c5, matches):
        print(f"  vertex {record.vertex} ends at {record.final}; "
              f"patterns here: {', '.join(record.patterns)}")

    # Rule sets are data, so alternative schedules are one list away.
    # Starting every vertex at zero charge turns the ledger into a pure
    # flow record: each final charge is the vertex's net intake.
    toy = [DischargeRule(id="toy", sender=frozenset({ClassLabel.DEG4}),
                         receiver=frozenset({ClassLabel.DEG3A}),
                         amount=Fraction(1, 11))]
    zeros = dict.fromkeys(range(k34.n), 0)
    toy_ledger = apply_rules(k34, labels, toy, zeros)
    print("\ncustom one-rule schedule on K(3,4):",
          len(toy_ledger.transfers), "transfers;",
          "each 4-vertex sends a net", -toy_ledger.final[0])


if __name__ == "__main__":
    main()
