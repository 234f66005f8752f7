"""Checks of the benchmark's stored data, its failure accounting and its
tracing.  Run from the root of a checkout:

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

se = run.import_strongedge()
EXPECTED = json.loads(run.EXPECTED.read_text(encoding="utf-8"))


def last_json(capsys):
    return json.loads(capsys.readouterr().out.splitlines()[-1])


def test_corpus_matches_enumeration():
    by_order = {}
    for line in run.CORPUS.read_text(encoding="ascii").split():
        by_order.setdefault(run.graph6_shape(line)[0], []).append(line)
    assert sorted(by_order) == list(range(1, run.CORPUS_MAX_N + 1))
    for n, stored in by_order.items():
        made = [se.graph.to_graph6(g) for g in se.smallgraphs.enumerate_connected(n)]
        assert len(stored) == len(made) == se.smallgraphs.CONNECTED_COUNTS[n]
        assert run.fingerprint(stored) == run.fingerprint(made)
        assert run.fingerprint(stored) == EXPECTED["enumerate"]["fingerprints"][str(n)]


def test_batch_summaries_add_up_to_corpus_counts():
    sweep = EXPECTED["sweep"]
    for theorem, admitted in (("1", 1013), ("2", 2757)):
        total = sweep["totals"][theorem]
        assert total["admitted"] == total["passes"] == admitted
        for field, value in total.items():
            assert sum(s[field] for s in sweep["summaries"][theorem]) == value


def test_large_pool_sits_clear_of_budget():
    for inst in EXPECTED["large"]["instances"]:
        assert inst["chi_s"] <= 13
        assert inst["seconds"] * 5 < run.LARGE_BUDGET


def test_raising_verify_call_fails_its_graphs(monkeypatch, capsys):
    def boom(g):
        raise RuntimeError("injected")

    monkeypatch.setattr(se.verify, "mad_exact", boom)
    assert run.main(["--workload", "sweep", "--seconds", "0"]) == 0
    res = last_json(capsys)
    assert res["correct"] is False
    assert res["failed"] == res["attempted"] > 0
    assert set(res["metrics"]) == set(run.END_TO_END)


def test_traced_run_matches_untraced(capsys):
    original = se.verify.find_configurations
    assert run.main(["--workload", "sweep", "--seconds", "0", "--trace", "1"]) == 0
    res = last_json(capsys)
    assert res["correct"] is True and res["failed"] == 0
    assert list(res["metrics"]) == list(run.PER_LAYER)
    m = res["metrics"]
    assert m["patterns.find_configurations_s"]["value"] > 0
    assert m["coloring.nodes"]["value"] >= 0
    assert se.verify.find_configurations is original
