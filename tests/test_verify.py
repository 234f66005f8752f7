"""End-to-end theorem verification runs and their JSON reports."""

import json
from fractions import Fraction

import pytest

import oracles
import strongedge.verify
from strongedge import (
    ChiResult,
    Graph,
    build_conflict_graph,
    chi_s_exact,
    emit_report,
    parse_graph6,
    report_to_json,
    verify_theorem,
)
from strongedge.discharge import AuditRecord


def test_run_over_small_corpus(corpus6):
    report = verify_theorem(1, corpus6, jobs=1, descriptor="n<=6")
    s = report.summary
    assert report.theorem == 1 and report.bound == 13
    assert report.target == Fraction(34, 11)
    assert report.corpus == "n<=6"
    assert s["corpus_size"] == len(corpus6)
    assert s["rejected_disconnected"] == 0
    assert s["corpus_size"] == s["filtered"] + s["admitted"]
    assert s["admitted"] == len(report.records)
    assert s["filtered"] == len(report.filtered)
    assert s["admitted"] == s["passes"] + s["failures"] + s["timeouts"]
    assert s["failures"] == 0 and s["timeouts"] == 0
    assert list(report.filtered) == sorted(report.filtered)
    keys = [r.graph6 for r in report.records]
    assert keys == sorted(keys)
    for r in report.records:
        g = parse_graph6(r.graph6)
        assert r.theta <= 7 and r.mad < Fraction(34, 11)
        res = chi_s_exact(build_conflict_graph(g))
        assert res.status == "OK" and res.value == r.chi_s
        assert r.passed == (r.chi_s <= r.bound)
        assert r.configurations_found  # unavoidability
        assert not r.timeout


def test_hypothesis_filter_edges():
    k34 = Graph(*oracles.complete_bipartite(3, 4))  # mad exactly at target
    k4 = Graph(*oracles.complete(4))
    big_star = Graph(*oracles.star(8))  # degree-sum 9 busts the cap
    lonely = Graph(1, [])  # no edges, no Ore degree
    report = verify_theorem(1, [k34, k4, big_star, lonely], jobs=1)
    assert report.summary["filtered"] == 3
    assert report.summary["admitted"] == 1
    [rec] = report.records
    assert rec.chi_s == 6 and rec.passed is True

    report = verify_theorem(2, [Graph(*oracles.complete_bipartite(4, 4))], jobs=1)
    assert report.summary["filtered"] == 1  # mad = 4 is not below 113/31

    report = verify_theorem(2, [Graph(*oracles.petersen())], jobs=1)
    [rec] = report.records
    assert rec.chi_s == 5 and rec.passed is True
    assert rec.configurations_found == ("deg3-pair-missing-deg5",)


def test_disconnected_graphs_are_rejected():
    report = verify_theorem(1, [Graph(2, []), Graph(*oracles.path(3))], jobs=1)
    assert report.rejected_disconnected == 1
    assert report.summary["corpus_size"] == 2
    assert report.summary["admitted"] == 1


def test_empty_corpus():
    report = verify_theorem(1, [], jobs=1)
    assert report.records == () and report.filtered == ()
    assert report.summary == {
        "corpus_size": 0,
        "rejected_disconnected": 0,
        "filtered": 0,
        "admitted": 0,
        "passes": 0,
        "failures": 0,
        "timeouts": 0,
    }


def test_theorem_number_is_validated():
    with pytest.raises(ValueError):
        verify_theorem(3, [])
    # True and 1.0 hash and compare equal to 1, so they reach THEOREMS[1]
    # unless the type itself is refused
    k3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
    for which in (True, 1.0, "1"):
        with pytest.raises(ValueError):
            verify_theorem(which, [k3], jobs=1)


def _graphs_upto_5(corpus6):
    return [g for g in corpus6 if g.n <= 5]


def test_runs_are_deterministic_modulo_wall_time(corpus6):
    corpus = _graphs_upto_5(corpus6)
    a = verify_theorem(1, corpus, jobs=1)
    b = verify_theorem(1, corpus, jobs=1)
    assert a._replace(wall_ms=0) == b._replace(wall_ms=0)


def test_parallel_equals_serial(corpus6):
    corpus = _graphs_upto_5(corpus6)
    a = verify_theorem(1, corpus, jobs=1)
    b = verify_theorem(1, corpus, jobs=2)
    assert a._replace(wall_ms=0) == b._replace(wall_ms=0)


@pytest.fixture
def pool_sizes(monkeypatch):
    """The sizes of the pools verify_theorem asks for; each maps in this
    process and starts no worker."""
    sizes = []

    class InProcessPool:
        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, items):
            return list(map(func, items))

    monkeypatch.setattr(strongedge.verify.multiprocessing, "Pool", InProcessPool)
    return sizes


def test_pool_has_no_more_workers_than_graphs(monkeypatch, pool_sizes, corpus6):
    monkeypatch.setattr(strongedge.verify.os, "cpu_count", lambda: 64)
    three = [g for g in corpus6 if g.n <= 3][1:]
    assert len(three) == 3
    report = verify_theorem(1, three, jobs=8)
    assert pool_sizes == [3]
    assert report._replace(wall_ms=0) == verify_theorem(1, three, jobs=1)._replace(
        wall_ms=0
    )
    verify_theorem(1, three[:1], jobs=8)
    assert pool_sizes == [3]


def test_pool_has_no_more_workers_than_cpus(monkeypatch, pool_sizes, corpus6):
    monkeypatch.setattr(strongedge.verify.os, "cpu_count", lambda: 2)
    five = [g for g in corpus6 if g.n <= 4][:5]
    assert len(five) == 5
    report = verify_theorem(1, five, jobs=10**6)
    assert pool_sizes == [2]
    assert report._replace(wall_ms=0) == verify_theorem(1, five, jobs=1)._replace(
        wall_ms=0
    )


def test_report_json_shape(corpus6, tmp_path):
    corpus = _graphs_upto_5(corpus6)
    report = verify_theorem(1, corpus, jobs=1, descriptor="n<=5")
    text = report_to_json(report)
    doc = json.loads(text)
    assert doc["schema"] == "strongedge-report/1"
    assert doc["theorem"] == 1 and doc["bound"] == 13
    assert doc["target"] == {"num": 34, "den": 11}
    assert doc["corpus"] == "n<=5"
    assert doc["summary"] == report.summary
    assert doc["filtered"] == list(report.filtered)
    for item, rec in zip(doc["records"], report.records):
        assert item["graph6"] == rec.graph6
        assert Fraction(item["mad"]["num"], item["mad"]["den"]) == rec.mad
        assert item["pass"] is rec.passed
        assert item["configurations_found"] == list(rec.configurations_found)
        for neg, a in zip(item["discharge_negatives"], rec.discharge_negatives):
            assert neg["vertex"] == a.vertex
            assert Fraction(neg["final"]["num"], neg["final"]["den"]) == a.final
            assert neg["patterns"] == list(a.patterns)

    # two separate runs serialize identically once wall time is removed
    again = verify_theorem(1, corpus, jobs=1, descriptor="n<=5")
    d1, d2 = json.loads(report_to_json(report)), json.loads(report_to_json(again))
    d1.pop("wall_ms"), d2.pop("wall_ms")
    assert d1 == d2

    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    emit_report(report, p1)
    emit_report(report, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text(encoding="utf-8") == text


def test_timeouts_are_recorded_not_failed(monkeypatch):
    def fake_chi(cg, time_budget=10.0):
        return ChiResult("TIMEOUT", None, 0, 99, None, 5000)

    monkeypatch.setattr(strongedge.verify, "chi_s_exact", fake_chi)
    report = verify_theorem(1, [Graph(*oracles.cycle(5))], jobs=1)
    [rec] = report.records
    assert rec.timeout is True and rec.chi_s is None and rec.passed is None
    assert report.summary["timeouts"] == 1
    assert report.summary["failures"] == 0
    assert report.summary["passes"] == 0


def test_failures_are_counted(monkeypatch):
    def fake_chi(cg, time_budget=10.0):
        return ChiResult("OK", 99, 99, 99, None, 1)

    monkeypatch.setattr(strongedge.verify, "chi_s_exact", fake_chi)
    report = verify_theorem(1, [Graph(*oracles.cycle(5))], jobs=1)
    [rec] = report.records
    assert rec.passed is False and rec.chi_s == 99
    assert report.summary["failures"] == 1


def _reference_json(report):
    # the report's document as a dict, dumped by json itself; independent
    # of the package's writer
    def frac(x):
        f = Fraction(x)
        return {"num": f.numerator, "den": f.denominator}

    doc = {
        "schema": "strongedge-report/1",
        "theorem": report.theorem,
        "bound": report.bound,
        "target": frac(report.target),
        "corpus": report.corpus,
        "version": report.version,
        "wall_ms": report.wall_ms,
        "summary": report.summary,
        "filtered": list(report.filtered),
        "records": [
            {
                "graph6": r.graph6,
                "theta": r.theta,
                "mad": frac(r.mad),
                "chi_s": r.chi_s,
                "bound": r.bound,
                "pass": r.passed,
                "timeout": r.timeout,
                "configurations_found": list(r.configurations_found),
                "discharge_negatives": [
                    {
                        "vertex": a.vertex,
                        "final": frac(a.final),
                        "patterns": list(a.patterns),
                    }
                    for a in r.discharge_negatives
                ],
            }
            for r in report.records
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def test_report_json_is_json_dumps_layout(corpus6):
    k4 = Graph(*oracles.complete(4))
    big_star = Graph(*oracles.star(8))
    c5 = Graph(*oracles.cycle(5))
    reports = [
        verify_theorem(1, [], jobs=1),
        verify_theorem(1, [k4, big_star], jobs=1),  # every graph filtered
        verify_theorem(1, [Graph(2, []), Graph(4, [(0, 1), (2, 3)]), c5], jobs=1),
        verify_theorem(2, [c5], jobs=1, descriptor="c\u00e9 \u2264 \U0001d54a \"q\" \\"),
    ]
    [rec] = reports[-1].records
    bare = rec._replace(configurations_found=(), discharge_negatives=())
    audits = (
        AuditRecord(0, Fraction(-1, 3), ()),
        AuditRecord(4, Fraction(-2), ("triangle", "d\u00e9g \"2\"")),
    )
    reports += [
        reports[-1]._replace(records=(bare,)),
        reports[-1]._replace(records=(rec._replace(discharge_negatives=audits),)),
        reports[-1]._replace(
            records=(rec._replace(chi_s=None, passed=None, timeout=True), bare)
        ),
    ]
    for which in (1, 2):
        reports.append(verify_theorem(which, corpus6, jobs=1, descriptor="n<=6"))
    # the n <= 6 corpus has audit rows, and a graph6 record with a
    # backslash, which JSON escapes
    assert any(r.discharge_negatives for r in reports[-1].records)
    assert any("\\" in r.graph6 for r in reports[-1].records)
    for report in reports:
        assert report_to_json(report) == _reference_json(report)
