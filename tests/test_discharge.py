"""Charge initialization, rule application, designation, audit, rule files."""

import hashlib
import io
import itertools
import json
from fractions import Fraction

import pytest

import oracles
from conftest import random_graph
from strongedge import (
    Arity,
    ClassLabel,
    DischargeRule,
    Graph,
    Scheme,
    THEOREMS,
    THETA7_LABELS,
    apply_rules,
    audit_negative,
    builtin_ruleset,
    classify,
    find_configurations,
    initial_charges,
    load_ruleset,
    mad_exact,
    ore_degree,
    receivers,
    scheme_labels,
    scheme_target,
    to_graph6,
)

L = ClassLabel


def _zeros(g):
    """Zero initial charges: the ledger is then a pure flow record."""
    return dict.fromkeys(range(g.n), 0)


def test_builtin_ruleset_shape():
    t7 = builtin_ruleset(Scheme.THETA7)
    assert [r.id for r in t7] == [
        "T7.R1a", "T7.R1b", "T7.R2", "T7.R3", "T7.R4", "T7.R5",
    ]
    t8 = builtin_ruleset(Scheme.THETA8)
    assert [r.id for r in t8] == [
        "T8.R1a", "T8.R1b", "T8.R2", "T8.R3a", "T8.R3b",
        "T8.R4a", "T8.R4b", "T8.R5", "T8.R6",
    ]
    for rules in (t7, t8):
        assert len({r.id for r in rules}) == len(rules)
        for r in rules:
            assert isinstance(r.amount, Fraction) and r.amount > 0
            assert r.sender and r.receiver
    designated = [r for r in t7 if r.arity is Arity.ONE_DESIGNATED]
    assert [r.id for r in designated] == ["T7.R3", "T7.R4"]
    assert dict((r.id, r.avoid) for r in designated) == {
        "T7.R3": frozenset({L.DEG3B}),
        "T7.R4": frozenset(
            {L.DEG3C_WEAK, L.DEG3C_MODERATE, L.DEG3C_STRONG}
        ),
    }
    assert all(r.arity is Arity.ALL_MATCHING for r in t8)
    # the four receiver amounts of the one-4-neighbor family, descending
    assert (
        Fraction(1, 22)
        > Fraction(5, 132)
        > Fraction(1, 33)
        > Fraction(1, 66)
    )
    with pytest.raises(ValueError):
        builtin_ruleset("theta9")


@pytest.mark.parametrize("scheme", [Scheme.THETA7, Scheme.THETA8])
def test_builtin_ruleset_names_only_scheme_classes(scheme):
    # apply_rules checks no scheme; the built-in rules must stay inside theirs
    allowed = scheme_labels(scheme)
    for r in builtin_ruleset(scheme):
        assert r.sender | r.receiver | r.avoid <= allowed, r.id


def test_initial_charges_values():
    g = Graph(*oracles.cycle(5))
    charges = initial_charges(g, Fraction(34, 11))
    assert all(c == Fraction(-12, 11) for c in charges.values())

    g = Graph(*oracles.complete_bipartite(3, 4))
    charges = initial_charges(g, Fraction(34, 11))
    assert sum(charges.values()) == Fraction(26, 11)
    assert charges[0] == Fraction(10, 11) and charges[6] == Fraction(-1, 11)


def test_inexact_targets_and_charges_are_refused():
    g = Graph(*oracles.cycle(5))
    for bad in (3.09, 3.0, True):
        with pytest.raises(ValueError, match=repr(bad)):
            initial_charges(g, bad)
    for bad in (0.5, False):
        with pytest.raises(ValueError, match=repr(bad)):
            apply_rules(g, {}, [], charges={v: bad for v in range(g.n)})
    # exact spellings of the same targets still work
    for exact in (3, Fraction(34, 11), "34/11"):
        charges = initial_charges(g, exact)
        assert all(c == 2 - Fraction(exact) for c in charges.values())


def test_petersen_flow_is_empty_and_negative():
    g = Graph(*oracles.petersen())
    labels = classify(g, Scheme.THETA7).labels
    ledger = apply_rules(
        g,
        labels,
        builtin_ruleset(Scheme.THETA7),
        charges=initial_charges(g, scheme_target(Scheme.THETA7)),
    )
    assert ledger.transfers == ()
    assert all(c == Fraction(-1, 11) for c in ledger.final.values())
    assert sum(ledger.final.values()) == Fraction(-10, 11)
    matches = find_configurations(g, Scheme.THETA7, labels)
    records = audit_negative(ledger, g, matches)
    assert [r.vertex for r in records] == list(range(10))
    known = {"deg3d-pair-low-support", "five-cycle-3d", "pan-3d"}
    for r in records:
        assert r.final == Fraction(-1, 11)
        assert r.patterns and set(r.patterns) <= known
        assert list(r.patterns) == sorted(r.patterns)


def test_complete_bipartite_flow_and_final_values():
    g = Graph(*oracles.complete_bipartite(3, 4))
    labels = classify(g, Scheme.THETA7).labels
    ledger = apply_rules(
        g,
        labels,
        builtin_ruleset(Scheme.THETA7),
        charges=initial_charges(g, scheme_target(Scheme.THETA7)),
    )
    assert ledger.transfers == tuple(
        ("T7.R1b", s, r, Fraction(4, 33))
        for s in range(3)
        for r in range(3, 7)
    )
    for v in range(3):
        assert ledger.final[v] == Fraction(14, 33)
    for v in range(3, 7):
        assert ledger.final[v] == Fraction(3, 11)
    assert sum(ledger.final.values()) == Fraction(26, 11)
    matches = find_configurations(g, Scheme.THETA7, labels)
    assert audit_negative(ledger, g, matches) == []


def _designation_ledger(labels):
    g = Graph(*oracles.star(3))
    rule = DischargeRule(
        "X",
        frozenset({L.DEG3C_STRONG}),
        frozenset({L.DEG3B, L.DEG3D}),
        Fraction(5, 132),
        Arity.ONE_DESIGNATED,
        frozenset({L.DEG3B}),
    )
    return apply_rules(g, labels, [rule], _zeros(g))


def test_designation_prefers_unique_non_avoided():
    ledger = _designation_ledger(
        {0: L.DEG3C_STRONG, 1: L.DEG3B, 2: L.DEG3D, 3: L.DEG4}
    )
    assert ledger.transfers == (("X", 0, 2, Fraction(5, 132)),)


def test_designation_falls_back_to_smallest_eligible():
    # two non-avoided candidates: the smallest eligible id wins, even if
    # that one carries an avoided label
    ledger = _designation_ledger(
        {0: L.DEG3C_STRONG, 1: L.DEG3B, 2: L.DEG3D, 3: L.DEG3D}
    )
    assert ledger.transfers == (("X", 0, 1, Fraction(5, 132)),)
    # all candidates avoided: the transfer still goes to the smallest
    ledger = _designation_ledger(
        {0: L.DEG3C_STRONG, 1: L.DEG3B, 2: L.DEG3B, 3: L.DEG3B}
    )
    assert ledger.transfers == (("X", 0, 1, Fraction(5, 132)),)


def test_designation_without_eligible_sends_nothing():
    ledger = _designation_ledger(
        {0: L.DEG3C_STRONG, 1: L.DEG4, 2: L.DEG4, 3: L.DEG4}
    )
    assert ledger.transfers == ()
    assert all(c == 0 for c in ledger.final.values())


def _builtin(rule_id):
    (rule,) = [r for r in builtin_ruleset(Scheme.THETA7) if r.id == rule_id]
    return rule


def test_receivers_all_matching_pays_every_eligible():
    rule = DischargeRule(
        "A", frozenset({L.DEG4}), frozenset({L.DEG2, L.DEG3D}), Fraction(1)
    )
    labels = [L.DEG2, L.DEG4, None, L.DEG3D, L.UNCLASSIFIED, L.DEG2]
    assert receivers(rule, labels) == [0, 3, 5]
    assert receivers(rule, [L.DEG4, None]) == []
    assert receivers(rule, []) == []


def test_receivers_one_designated():
    r3 = _builtin("T7.R3")  # receivers: every 3-class; avoids 3B
    # one free neighbor: it is paid, wherever it stands
    assert receivers(r3, [L.DEG3B, L.DEG4, L.DEG3D]) == [2]
    # several free: the first eligible, avoided or not
    assert receivers(r3, [L.DEG4, L.DEG3B, L.DEG3D, L.DEG3A]) == [1]
    # none free: the first eligible
    assert receivers(r3, [L.DEG2, L.DEG3B, L.DEG3B]) == [1]
    # none eligible
    assert receivers(r3, [L.DEG2, L.DEG4, L.UNCLASSIFIED]) == []
    # an unlabeled neighbor is neither eligible nor free
    assert receivers(r3, [None, L.DEG3B, L.DEG3D]) == [2]
    assert receivers(r3, [None]) == []


@pytest.mark.parametrize("rule_id", ["T7.R3", "T7.R4"])
def test_designated_neighbor_paid_in_every_order_iff_paid_last(rule_id):
    # a neighbor c of a sender is paid whatever the ids of the sender's
    # other neighbors exactly when it is paid while placed last, and that
    # is when c is the sole eligible neighbor or the sole one outside the
    # avoid classes: the worst case a certifier reads from `receivers`
    rule = _builtin(rule_id)
    pool = sorted(THETA7_LABELS | {L.UNCLASSIFIED}, key=lambda lab: lab.value)
    cases = paid = 0
    for size in range(4):
        for others in itertools.combinations_with_replacement(pool, size):
            for c in pool:
                star = [*others, c]
                last = size in receivers(rule, star)
                always = all(
                    order.index(size)
                    in receivers(rule, [star[i] for i in order])
                    for order in itertools.permutations(range(size + 1))
                )
                eligible = [lab for lab in star if lab in rule.receiver]
                free = [lab for lab in eligible if lab not in rule.avoid]
                sole = c in rule.receiver and (
                    len(eligible) == 1 or (c not in rule.avoid and len(free) == 1)
                )
                assert always == last == sole, (others, c)
                cases += 1
                paid += sole
    assert cases == 1980 and 0 < paid < cases


def test_unclassified_vertices_are_inert():
    g = Graph(2, [(0, 1)])
    rule = DischargeRule(
        "Y", frozenset({L.DEG3D}), frozenset({L.DEG3D}), Fraction(1)
    )
    zeros = _zeros(g)
    ledger = apply_rules(g, {0: L.DEG3D, 1: L.UNCLASSIFIED}, [rule], zeros)
    assert ledger.transfers == ()
    ledger = apply_rules(g, {0: L.UNCLASSIFIED, 1: L.DEG3D}, [rule], zeros)
    assert ledger.transfers == ()
    ledger = apply_rules(g, {0: L.DEG3D}, [rule], zeros)  # missing = unlabeled
    assert ledger.transfers == ()


def test_zero_charges_give_pure_flow_ledger():
    g = Graph(*oracles.complete_bipartite(3, 4))
    labels = classify(g, Scheme.THETA7).labels
    ledger = apply_rules(g, labels, builtin_ruleset(Scheme.THETA7), _zeros(g))
    assert all(c == 0 for c in ledger.initial.values())
    assert sum(ledger.final.values()) == 0
    assert ledger.final[0] == Fraction(-16, 33)  # sends 4 * 4/33


# the ledger of every connected graph with n <= 7 under both schemes, from
# the scheme's target: its transfer count and the digest of its charges and
# transfers, taken before `receivers` existed
LEDGER_TRANSFERS = 3049
LEDGER_DIGEST = "f215dbc9b6ee4887d794399480f1bbc5367b4f91e27e5ce257ae55b7a3443aa5"


def test_ledgers_pinned(corpus7):
    rows = []
    for g in corpus7:
        for scheme in Scheme:
            ledger = apply_rules(
                g, classify(g, scheme).labels, builtin_ruleset(scheme),
                initial_charges(g, scheme_target(scheme)),
            )
            rows.append([
                to_graph6(g),
                scheme.value,
                [str(ledger.initial[v]) for v in range(g.n)],
                [str(ledger.final[v]) for v in range(g.n)],
                [[rid, v, u, str(a)] for rid, v, u, a in ledger.transfers],
            ])
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    transfers = sum(len(row[4]) for row in rows)
    assert (transfers, digest) == (LEDGER_TRANSFERS, LEDGER_DIGEST)


def test_int_charges_come_back_as_fractions():
    g = Graph(3, [(0, 1), (1, 2)])
    kept = Fraction(1, 3)
    ledger = apply_rules(g, {}, [], charges={0: -1, 1: kept, 2: 2})
    assert ledger.initial == {0: Fraction(-1), 1: kept, 2: Fraction(2)}
    assert all(type(c) is Fraction for c in ledger.initial.values())
    assert ledger.initial[1] is kept


def test_transfer_log_is_canonically_sorted(rng):
    for scheme in (Scheme.THETA7, Scheme.THETA8):
        for _ in range(10):
            g = random_graph(rng, rng.randint(2, 8), 0.5)
            labels = classify(g, scheme).labels
            ledger = apply_rules(g, labels, builtin_ruleset(scheme), _zeros(g))
            keys = [(t[0], t[1], t[2]) for t in ledger.transfers]
            assert keys == sorted(keys)


def test_conservation_fuzz(rng):
    for scheme in (Scheme.THETA7, Scheme.THETA8):
        target = scheme_target(scheme)
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 8), rng.choice([0.3, 0.6]))
            labels = classify(g, scheme).labels
            ledger = apply_rules(
                g, labels, builtin_ruleset(scheme),
                charges=initial_charges(g, target),
            )
            total = Fraction(2 * g.m) - g.n * target
            assert sum(ledger.initial.values()) == total
            assert sum(ledger.final.values()) == total
            assert set(ledger.final) == set(range(g.n))


def _audit_oracle(ledger, g, matches):
    """audit_negative by its definition: for each negative vertex v, the
    ids of patterns with a match that places a slot inside N[v]."""
    out = []
    for v in sorted(ledger.final):
        if ledger.final[v] >= 0:
            continue
        closed = {v, *g.neighbors(v)}
        ids = {
            m.pattern_id
            for m in matches
            if any(h in closed for _, h in m.assignment)
        }
        out.append((v, ledger.final[v], tuple(sorted(ids))))
    return out


def _admitted(corpus, scheme):
    """The corpus graphs the scheme's theorem admits, as verify filters."""
    (cap,) = [c for s, c, _ in THEOREMS.values() if s is scheme]
    target = scheme_target(scheme)
    return [
        g for g in corpus
        if g.m and ore_degree(g) <= cap and mad_exact(g)[0] < target
    ]


@pytest.mark.parametrize("scheme", [Scheme.THETA7, Scheme.THETA8])
def test_audit_matches_definition_on_random_hosts(rng, corpus7, scheme):
    # random hosts, the Petersen graph, and the sweep's own n <= 7 inputs
    hosts = [
        random_graph(rng, rng.randint(2, 12), rng.choice([0.2, 0.35, 0.5]))
        for _ in range(40)
    ]
    hosts.append(Graph(*oracles.petersen()))
    hosts += _admitted(corpus7, scheme)
    records = explained = 0
    for g in hosts:
        labels = classify(g, scheme).labels
        ledger = apply_rules(
            g, labels, builtin_ruleset(scheme),
            charges=initial_charges(g, scheme_target(scheme)),
        )
        matches = find_configurations(g, scheme, labels)
        expected = _audit_oracle(ledger, g, matches)
        assert [tuple(r) for r in audit_negative(ledger, g, matches)] == expected
        records += len(expected)
        explained += sum(1 for r in expected if r[2])
    assert explained > 0 and records > explained


def _rule_json(rules):
    out = []
    for r in rules:
        item = {
            "id": r.id,
            "sender": sorted(lab.value for lab in r.sender),
            "receiver": sorted(lab.value for lab in r.receiver),
            "amount": str(r.amount),
        }
        if r.arity is not Arity.ALL_MATCHING:
            item["arity"] = r.arity.value
        if r.avoid:
            item["avoid"] = sorted(lab.value for lab in r.avoid)
        out.append(item)
    return json.dumps(out)


def test_load_ruleset_roundtrip(tmp_path):
    for scheme in (Scheme.THETA7, Scheme.THETA8):
        rules = builtin_ruleset(scheme)
        text = _rule_json(rules)
        loaded = load_ruleset(io.StringIO(text), scheme)
        assert loaded == rules
        path = tmp_path / f"{scheme.value}.json"
        path.write_text(text, encoding="utf-8")
        assert load_ruleset(path, scheme) == rules


def _load(text):
    return load_ruleset(io.StringIO(text), Scheme.THETA7)


def test_load_ruleset_errors():
    ok = {
        "id": "A",
        "sender": ["4"],
        "receiver": ["2"],
        "amount": "6/11",
    }
    with pytest.raises(ValueError, match="JSON array"):
        _load('{"id": "A"}')
    with pytest.raises(ValueError, match="expected an object"):
        _load('["A"]')
    with pytest.raises(ValueError, match="missing field"):
        _load(json.dumps([{"id": "A", "sender": ["4"]}]))
    with pytest.raises(ValueError, match="nonempty string"):
        _load(json.dumps([dict(ok, id="")]))
    with pytest.raises(ValueError, match="duplicate id"):
        _load(json.dumps([ok, dict(ok)]))
    with pytest.raises(ValueError, match="nonempty array"):
        _load(json.dumps([dict(ok, sender=[])]))
    with pytest.raises(ValueError, match="unknown class"):
        _load(json.dumps([dict(ok, receiver=["3E"])]))
    with pytest.raises(ValueError, match="amount must be a rational"):
        _load(json.dumps([dict(ok, amount="a/b")]))
    with pytest.raises(ValueError, match="amount must be a rational"):
        _load(json.dumps([dict(ok, amount="1/0")]))
    with pytest.raises(ValueError, match="amount must be positive"):
        _load(json.dumps([dict(ok, amount="-1/2")]))
    # JSON true, floats and an overflowing float are not exact rationals
    for raw in ("true", "0.1", "1e400"):
        text = json.dumps([dict(ok, amount=None)]).replace("null", raw)
        with pytest.raises(ValueError, match="amount must be a rational"):
            _load(text)
    assert _load(json.dumps([dict(ok, amount=2)]))[0].amount == 2
    with pytest.raises(ValueError, match="unknown arity"):
        _load(json.dumps([dict(ok, arity="SOME")]))
    with pytest.raises(ValueError, match="outside theta7"):
        _load(json.dumps([dict(ok, receiver=["4A"])]))
    # json's parser recurses once per level; too deep is a bad file
    with pytest.raises(ValueError, match="nested too deeply"):
        _load("[" * 100000)
