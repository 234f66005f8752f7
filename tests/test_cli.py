"""The command-line interface: subcommands, formats, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
import strongedge.cli
from strongedge import Graph, to_graph6
from strongedge.cli import main
from test_coloring import _HARD_HOST

C5_EDGES = "n=5\n0 1\n1 2\n2 3\n3 4\n0 4\n"


@pytest.fixture
def c5_edges(tmp_path):
    p = tmp_path / "c5.edges"
    p.write_text(C5_EDGES, encoding="utf-8")
    return str(p)


@pytest.fixture
def c5_g6(tmp_path):
    p = tmp_path / "c5.g6"
    p.write_text(to_graph6(Graph(*oracles.cycle(5))) + "\n", encoding="utf-8")
    return str(p)


def _run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def _json_out(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert err == ""
    return code, json.loads(out)


def test_metrics(capsys, c5_edges):
    code, doc = _json_out(capsys, ["metrics", c5_edges])
    assert code == 0
    assert doc["n"] == 5 and doc["m"] == 5 and doc["delta"] == 2
    assert doc["theta"] == 4
    assert doc["mad"] == {"num": 2, "den": 1, "witness": [0, 1, 2, 3, 4]}
    assert doc["classes_theta7"] == {str(v): "2" for v in range(5)}
    assert doc["classes_theta8"] == {str(v): "unclassified" for v in range(5)}


def test_metrics_edgeless(capsys, tmp_path):
    p = tmp_path / "bare.edges"
    p.write_text("n=3\n", encoding="utf-8")
    code, doc = _json_out(capsys, ["metrics", str(p)])
    assert code == 0
    assert doc["theta"] is None and doc["mad"] is None and doc["delta"] == 0


def test_metrics_graph6_equals_edges(capsys, c5_edges, c5_g6):
    _, doc_a = _json_out(capsys, ["metrics", c5_edges])
    _, doc_b = _json_out(capsys, ["metrics", c5_g6])
    assert doc_a == doc_b


def test_format_override_and_inference(capsys, tmp_path):
    p = tmp_path / "c5.txt"
    p.write_text(C5_EDGES, encoding="utf-8")
    code, _, err = _run(capsys, ["metrics", str(p)])
    assert code == 3 and "cannot infer format" in err
    code, doc = _json_out(capsys, ["metrics", str(p), "--format", "edges"])
    assert code == 0 and doc["n"] == 5


def test_graph6_file_must_hold_one_graph(capsys, tmp_path):
    p = tmp_path / "two.g6"
    p.write_text("D?\nD?\n", encoding="utf-8")
    code, _, err = _run(capsys, ["metrics", str(p)])
    assert code == 3 and "exactly one graph6 line" in err
    p.write_text("\nA\u00e9\n", encoding="utf-8")
    code, _, err = _run(capsys, ["metrics", str(p)])
    assert code == 3 and err.startswith("error: two.g6: line 2: ")


def test_edge_list_ids_are_ascii_decimal(capsys, tmp_path):
    p = tmp_path / "arabic.edges"
    p.write_text("0 1\n1 \u0663\n", encoding="utf-8")
    code, _, err = _run(capsys, ["metrics", str(p)])
    assert code == 3 and err.startswith("error: line 2: non-integer id in ")


def test_missing_file(capsys, tmp_path):
    code, _, err = _run(capsys, ["metrics", str(tmp_path / "nope.edges")])
    assert code == 3 and err.startswith("error:")


def test_out_writes_file(capsys, c5_edges, tmp_path):
    out = tmp_path / "doc.json"
    code, stdout, _ = _run(capsys, ["metrics", c5_edges, "--out", str(out)])
    assert code == 0 and stdout == ""
    assert json.loads(out.read_text(encoding="utf-8"))["n"] == 5


def test_color_exact(capsys, c5_edges):
    code, doc = _json_out(capsys, ["color", c5_edges, "--exact"])
    assert code == 0
    assert doc["chi_s"] == 5 and len(doc["coloring"]) == 5
    assert set(doc["stats"]) == {"nodes", "time_ms"}
    for item in doc["coloring"]:
        assert 1 <= item["color"] <= 5 and len(item["edge"]) == 2


def test_color_decision(capsys, c5_edges):
    code, doc = _json_out(capsys, ["color", c5_edges, "--k", "5"])
    assert code == 0 and doc["sat"] is True and len(doc["coloring"]) == 5
    code, doc = _json_out(capsys, ["color", c5_edges, "--k", "4"])
    assert code == 0 and doc["sat"] is False and doc["coloring"] == []


def test_color_decision_timeout(capsys, tmp_path):
    p = tmp_path / "hard.edges"
    lines = [f"n={_HARD_HOST.n}"] + [f"{u} {v}" for u, v in _HARD_HOST.edges]
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, doc = _json_out(
        capsys, ["color", str(p), "--k", "12", "--budget", "0"]
    )
    assert code == 0 and doc["sat"] is None and doc["coloring"] == []


def test_color_decision_on_long_path(capsys, tmp_path):
    # 1200 edges: a solver whose depth tracks the edge count would need
    # more stack frames than the default recursion limit allows
    n, edges = oracles.path(1201)
    p = tmp_path / "p1201.edges"
    lines = [f"n={n}"] + [f"{u} {v}" for u, v in edges]
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, doc = _json_out(capsys, ["color", str(p), "--k", "3"])
    assert code == 0 and doc["sat"] is True and len(doc["coloring"]) == 1200


def test_color_flag_conflict(capsys, c5_edges):
    code, _, err = _run(capsys, ["color", c5_edges, "--k", "3", "--exact"])
    assert code == 3 and "mutually exclusive" in err


def test_check_roundtrip(capsys, c5_edges, tmp_path):
    out = tmp_path / "coloring.json"
    code, _, _ = _run(capsys, ["color", c5_edges, "--exact", "--out", str(out)])
    assert code == 0
    code, doc = _json_out(capsys, ["check", c5_edges, "--coloring", str(out)])
    assert code == 0 and doc == {"valid": True, "violations": []}

    # the bare-list form works too
    bare = tmp_path / "bare.json"
    bare.write_text(
        json.dumps(json.loads(out.read_text())["coloring"]), encoding="utf-8"
    )
    code, doc = _json_out(capsys, ["check", c5_edges, "--coloring", str(bare)])
    assert code == 0 and doc["valid"] is True


def test_check_flags_conflicts(capsys, c5_edges, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "k": 5,
                "coloring": [
                    {"edge": [0, 1], "color": 1},
                    {"edge": [1, 2], "color": 1},
                ],
            }
        ),
        encoding="utf-8",
    )
    code, doc = _json_out(capsys, ["check", c5_edges, "--coloring", str(bad)])
    assert code == 2 and doc["valid"] is False
    assert doc["violations"] == [{"edge": [0, 1], "edge2": [1, 2], "color": 1}]


def test_check_rejects_malformed_files(capsys, c5_edges, tmp_path):
    cases = [
        json.dumps({"coloring": "zap"}),
        json.dumps([{"edge": [0, 1]}]),
        json.dumps([{"edge": [0, 1], "color": 1}, {"edge": [1, 0], "color": 2}]),
        json.dumps([{"edge": [0, 2], "color": 1}]),  # not an edge of C5
        json.dumps({"k": "5", "coloring": [{"edge": [0, 1], "color": 1}]}),
        json.dumps({"k": True, "coloring": []}),
        json.dumps([{"edge": [0, 1], "color": "1"}]),
        json.dumps([{"edge": [0, 1], "color": True}]),
        json.dumps([{"edge": [0, 1], "color": 1}, {"edge": [1, 2], "color": "2"}]),
        json.dumps([{"edge": [[0], 1], "color": 1}]),
        json.dumps([{"edge": [[0], [1]], "color": 1}]),
        json.dumps([{"edge": [0.0, 1], "color": 1}]),
        json.dumps([{"edge": [0, 1.0], "color": 1}]),
        json.dumps([{"edge": [True, 2], "color": 1}]),
        json.dumps([{"edge": [0, True], "color": 1}]),
    ]
    for text in cases:
        p = tmp_path / "coloring.json"
        p.write_text(text, encoding="utf-8")
        code, _, err = _run(capsys, ["check", c5_edges, "--coloring", str(p)])
        assert code == 3 and err.startswith("error:")


def test_configs(capsys, c5_edges):
    code, docs = _json_out(capsys, ["configs", c5_edges, "--scheme", "theta7"])
    assert code == 0 and len(docs) == 10
    for item in docs:
        assert item["pattern"] == "deg2-bad-neighbor"
        assert set(item["assignment"]) == {"u", "z"}
        assert all(len(e) == 2 for e in item["matched_edges"])
        assert "reducibility" not in item


def test_configs_verify(capsys, tmp_path):
    p = tmp_path / "k3.edges"
    p.write_text("0 1\n1 2\n0 2\n", encoding="utf-8")
    code, docs = _json_out(
        capsys, ["configs", str(p), "--scheme", "theta7", "--verify"]
    )
    assert code == 0 and docs
    for item in docs:
        rep = item["reducibility"]
        assert rep["verdict"] == "EXTENDED" and rep["bounds_ok"] is True
        assert rep["k"] == 13
        for b in rep["bounds"]:
            assert b["ok"] is True and b["phase"] in ("pre", "post")


# sha256 of `configs --verify` on the paw under theta8, time_ms removed
_PAW_CONFIGS_DIGEST = (
    "f225d5d087aafcefb553c23e1de223327bb11fee6ab63d7030495bdfd1eeb94b"
)


def test_configs_verify_document_is_pinned(capsys, tmp_path):
    # three deg-outside-345 replays with OUT ceilings and a triangle-deg3,
    # all four extended by an SDR
    p = tmp_path / "paw.edges"
    p.write_text("0 1\n1 2\n2 0\n2 3\n", encoding="utf-8")
    code, docs = _json_out(
        capsys, ["configs", str(p), "--scheme", "theta8", "--verify"]
    )
    assert code == 0
    assert [item["reducibility"]["strategy"] for item in docs] == ["sdr"] * 4
    assert sum(len(item["reducibility"]["bounds"]) for item in docs) == 5
    for item in docs:
        del item["reducibility"]["time_ms"]
    text = json.dumps(docs, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == _PAW_CONFIGS_DIGEST


def test_configs_requires_scheme(c5_edges):
    with pytest.raises(SystemExit) as exc:
        main(["configs", c5_edges])
    assert exc.value.code == 3
    with pytest.raises(SystemExit) as exc:
        main(["configs", c5_edges, "--scheme", "theta9"])
    assert exc.value.code == 3


def test_discharge(capsys, c5_edges):
    code, doc = _json_out(capsys, ["discharge", c5_edges, "--scheme", "theta7"])
    assert code == 0
    assert doc["target"] == {"num": 34, "den": 11}
    assert doc["sum_initial"] == {"num": -60, "den": 11}
    assert doc["sum_final"] == {"num": -60, "den": 11}
    assert doc["transfers"] == []
    assert [v["initial"] for v in doc["vertices"]] == [{"num": -12, "den": 11}] * 5
    assert len(doc["negatives"]) == 5
    for neg in doc["negatives"]:
        assert neg["final"] == {"num": -12, "den": 11}
        assert neg["patterns"] == ["deg2-bad-neighbor"]


def test_check_rejects_deeply_nested_coloring(capsys, c5_edges, tmp_path):
    # json's parser recurses once per level and would raise RecursionError
    p = tmp_path / "coloring.json"
    p.write_text("[" * 5000 + "]" * 5000, encoding="utf-8")
    code, _, err = _run(capsys, ["check", c5_edges, "--coloring", str(p)])
    assert code == 3 and "nested too deeply" in err and str(p) in err


def test_discharge_rejects_deeply_nested_rules(capsys, c5_edges, tmp_path):
    p = tmp_path / "rules.json"
    p.write_text("[" * 5000 + "]" * 5000, encoding="utf-8")
    code, _, err = _run(
        capsys, ["discharge", c5_edges, "--scheme", "theta7", "--rules", str(p)]
    )
    assert code == 3 and "nested too deeply" in err and str(p) in err


def test_discharge_custom_rules(capsys, tmp_path):
    p = tmp_path / "k34.edges"
    lines = [f"{u} {v}" for u, v in oracles.complete_bipartite(3, 4)[1]]
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rules = tmp_path / "rules.json"
    rules.write_text(
        json.dumps(
            [
                {
                    "id": "only",
                    "sender": ["4"],
                    "receiver": ["3A"],
                    "amount": "1/11",
                }
            ]
        ),
        encoding="utf-8",
    )
    code, doc = _json_out(
        capsys,
        ["discharge", str(p), "--scheme", "theta7", "--rules", str(rules)],
    )
    assert code == 0 and len(doc["transfers"]) == 12
    assert all(
        t["rule"] == "only" and t["amount"] == {"num": 1, "den": 11}
        for t in doc["transfers"]
    )

    rules.write_text(
        json.dumps(
            [{"id": "x", "sender": ["4A"], "receiver": ["3A"], "amount": "1/2"}]
        ),
        encoding="utf-8",
    )
    code, _, err = _run(
        capsys,
        ["discharge", str(p), "--scheme", "theta7", "--rules", str(rules)],
    )
    assert code == 3 and "outside theta7" in err

    # a JSON number too large for a float must not crash the command
    rules.write_text(
        '[{"id": "x", "sender": ["4"], "receiver": ["3A"], "amount": 1e400}]',
        encoding="utf-8",
    )
    code, _, err = _run(
        capsys,
        ["discharge", str(p), "--scheme", "theta7", "--rules", str(rules)],
    )
    assert code == 3 and "amount must be a rational" in err


# the hosts whose discharge documents are pinned below, as (n, edges)
_DISCHARGE_HOSTS = {
    "c5": oracles.cycle(5),
    "k34": oracles.complete_bipartite(3, 4),
    "k44": oracles.complete_bipartite(4, 4),
    "k4": oracles.complete(4),
    "star6": oracles.star(6),
    "petersen": oracles.petersen(),
    "paw": (4, [(0, 1), (1, 2), (0, 2), (2, 3)]),
}

# sha256 of the 21 discharge documents, in the test's order
_DISCHARGE_DIGEST = (
    "9c06a1974b86513cf013419a288724990dc51708b410c7c8ecfd404f32a0ce28"
)


def test_discharge_documents_are_pinned(capsys, tmp_path):
    # per host: built-in rules under theta7 and theta8, then a one-rule file
    rules = tmp_path / "one.json"
    rules.write_text(
        json.dumps(
            [{"id": "only", "sender": ["4"], "receiver": ["3A"], "amount": "1/11"}]
        ),
        encoding="utf-8",
    )
    runs = (["theta7"], ["theta8"], ["theta7", "--rules", str(rules)])
    digest = hashlib.sha256()
    for name, (n, edges) in _DISCHARGE_HOSTS.items():
        p = tmp_path / f"{name}.edges"
        text = f"n={n}\n" + "".join(f"{u} {v}\n" for u, v in edges)
        p.write_text(text, encoding="utf-8")
        for run in runs:
            code, out, err = _run(capsys, ["discharge", str(p), "--scheme", *run])
            assert code == 0 and err == ""
            digest.update(out.encode())
    assert digest.hexdigest() == _DISCHARGE_DIGEST


def test_verify_builtin_corpus(capsys):
    code, doc = _json_out(
        capsys, ["verify", "--theorem", "1", "--max-n", "3", "--jobs", "1"]
    )
    assert code == 0
    assert doc["schema"] == "strongedge-report/1"
    assert doc["corpus"] == "builtin connected graphs n<=3"
    assert doc["summary"]["corpus_size"] == 4
    assert doc["summary"]["admitted"] == 3
    assert doc["summary"]["filtered"] == 1
    assert doc["summary"]["passes"] == 3


def test_verify_corpus_file(capsys, tmp_path):
    p = tmp_path / "corpus.g6"
    lines = [
        to_graph6(Graph(*oracles.cycle(5))),
        to_graph6(Graph(*oracles.complete(4))),
    ]
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "report.json"
    code, stdout, _ = _run(
        capsys,
        ["verify", "--theorem", "1", "--corpus", str(p), "--jobs", "1",
         "--out", str(out)],
    )
    assert code == 0 and stdout == ""
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["corpus"] == str(p)
    assert doc["summary"]["admitted"] == 2 and doc["summary"]["passes"] == 2


def test_verify_argument_errors(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--theorem", "3", "--max-n", "2"])
    assert exc.value.code == 3
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--theorem", "1"])
    assert exc.value.code == 3
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--theorem", "1", "--max-n", "2", "--corpus", "x.g6"])
    assert exc.value.code == 3
    code, _, err = _run(capsys, ["verify", "--theorem", "1", "--max-n", "0"])
    assert code == 3 and "--max-n" in err
    # nan would never end a search and a negative budget times every graph
    # out; fewer than one worker is no pool
    for flag, value in (
        ("--budget", "nan"),
        ("--budget", "-1"),
        ("--budget", "soon"),
        ("--jobs", "0"),
        ("--jobs", "-2"),
        ("--jobs", "1.5"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--theorem", "1", "--max-n", "2", flag, value])
        assert exc.value.code == 3
    bad = tmp_path / "bad.g6"
    bad.write_text("A_\nA\u00e9\n", encoding="utf-8")
    code, _, err = _run(capsys, ["verify", "--theorem", "1", "--corpus", str(bad)])
    assert code == 3 and "not ASCII" in err
    assert "\nerror: bad.g6: line 2: character " in err
    # blank lines count toward the number
    bad.write_text("A_\n\nC~~\n", encoding="utf-8")
    code, _, err = _run(capsys, ["verify", "--theorem", "1", "--corpus", str(bad)])
    assert code == 3
    assert err == "error: bad.g6: line 3: trailing bytes after graph data (byte 2)\n"


def test_verify_exit_2_on_failure(capsys, monkeypatch):
    real = strongedge.cli.verify_theorem

    def failing(which, corpus, budget=10.0, jobs=None, descriptor=""):
        report = real(which, corpus, budget=budget, jobs=1, descriptor=descriptor)
        summary = dict(report.summary)
        summary["failures"] = 1
        return report._replace(summary=summary)

    monkeypatch.setattr(strongedge.cli, "verify_theorem", failing)
    code, _, _ = _run(capsys, ["verify", "--theorem", "1", "--max-n", "2"])
    assert code == 2


def test_verify_exit_0_on_timeouts(capsys, monkeypatch):
    real = strongedge.cli.verify_theorem

    def timing_out(which, corpus, budget=10.0, jobs=None, descriptor=""):
        report = real(which, corpus, budget=budget, jobs=1, descriptor=descriptor)
        summary = dict(report.summary)
        summary["timeouts"] = 1
        return report._replace(summary=summary)

    monkeypatch.setattr(strongedge.cli, "verify_theorem", timing_out)
    code, _, _ = _run(capsys, ["verify", "--theorem", "1", "--max-n", "2"])
    assert code == 0


def test_console_entry_point(c5_edges):
    # the child imports strongedge from where this process found it
    src = Path(strongedge.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "strongedge.cli", "metrics", c5_edges],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n"] == 5
