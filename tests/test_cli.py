"""Command-line surface: documents, words, subcommands, exit codes."""

import json

import pytest

from deltapoly import DocumentError, SetSystem
from deltapoly.cli import (
    apply_operation_word,
    canonical_json,
    emit_document,
    main,
    parse_document,
    parse_operation_word,
)
from support import FIG_ORBIT, M0

M0_DOC = json.dumps(
    {"type": "setsystem", "ground": ["p", "q", "r"], "sets": [[], ["p"], ["p", "q"], ["q", "r"], ["r"]]}
)
TRIANGLE_DOC = json.dumps(
    {
        "type": "graph",
        "vertices": ["p", "q", "r"],
        "edges": [["p", "q"], ["p", "r"], ["q", "r"]],
        "loops": ["p", "r"],
    }
)


@pytest.fixture
def m0_path(tmp_path):
    path = tmp_path / "m0.json"
    path.write_text(M0_DOC)
    return str(path)


@pytest.fixture
def triangle_path(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(TRIANGLE_DOC)
    return str(path)


def test_parse_document_roundtrip():
    system = parse_document(M0_DOC)
    assert system == M0
    emitted = canonical_json(emit_document(system))
    assert parse_document(emitted) == system
    assert canonical_json(emit_document(parse_document(emitted))) == emitted


def test_parse_document_errors():
    with pytest.raises(DocumentError):
        parse_document("not json")
    with pytest.raises(DocumentError):
        parse_document(json.dumps({"type": "widget"}))
    with pytest.raises(DocumentError):
        parse_document(json.dumps({"type": "setsystem", "ground": ["a"], "sets": [["a"], ["a"]]}))
    with pytest.raises(DocumentError):
        parse_document(
            json.dumps({"type": "matroid", "ground": ["a", "b"], "bases": [["a"], ["a", "b"]]})
        )


def test_parse_operation_word():
    steps = parse_operation_word("*{p,q}+r~*s\\u[a,b]")
    assert steps == [
        ("pivot", ("p", "q")),
        ("loopc", ("r",)),
        ("dualpivot", ("s",)),
        ("delete", ("u",)),
        ("restrict", ("a", "b")),
    ]
    with pytest.raises(DocumentError):
        parse_operation_word("*")
    with pytest.raises(DocumentError):
        parse_operation_word("*{p,q")


def test_apply_operation_word_left_associative():
    # loopc u, delete u, pivot v means ((M+u)\u)*v
    system = SetSystem.from_sets(["u", "v"], [[], ["u", "v"]])
    out = apply_operation_word(system, "+u\\u*v")
    assert out == system.loopc("u").delete("u").pivot("v")


def test_cli_poly_golden(m0_path, capsys):
    assert main(["poly", "--which", "q1", "--input", m0_path]) == 0
    assert capsys.readouterr().out.strip() == "[5,3]"


def test_cli_eval_golden(m0_path, capsys):
    assert main(["eval", "--which", "Q1", "--at", "-2", "--input", m0_path]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_cli_apply_golden(m0_path, capsys):
    assert main(["apply", "--word", "+{p,q,r}", "--input", m0_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert parse_document(json.dumps(doc)) == FIG_ORBIT[1]


def test_cli_determinism(m0_path, capsys):
    main(["validate", "--input", m0_path])
    first = capsys.readouterr().out
    main(["validate", "--input", m0_path])
    assert capsys.readouterr().out == first


def test_cli_orbit(m0_path, capsys):
    assert main(["orbit", "--generators", "fullv", "--input", m0_path]) == 0
    docs = json.loads(capsys.readouterr().out)
    assert len(docs) == 6
    assert [parse_document(json.dumps(d)) for d in docs] == FIG_ORBIT


def test_cli_tree(m0_path, capsys):
    assert main(["tree", "--which", "q1", "--input", m0_path, "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "3y + 5" in out and "\\p" in out
    assert main(["tree", "--which", "Q1", "--input", m0_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == [16, 10, 1]
    assert [b["op"] for b in doc["branches"]] == ["\\p", "*p\\p", "~*p\\p"]


def test_cli_check(m0_path, capsys):
    assert main(["check", "dm", "--input", m0_path]) == 0
    assert json.loads(capsys.readouterr().out) is True
    assert main(["check", "divisible", "--element", "p", "--input", m0_path]) == 0
    assert json.loads(capsys.readouterr().out) == {"divisible": True, "strongly_divisible": True}


def test_cli_from_graph_and_verify(triangle_path, capsys):
    assert main(["from-graph", "--input", triangle_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert parse_document(json.dumps(doc["setsystem"])) == M0
    assert main(["verify", "--input", triangle_path]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and "graph roundtrip" in out


def test_cli_verify_setsystem(m0_path, capsys):
    assert main(["verify", "--input", m0_path]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "q1 recursion vs direct" in out


def test_cli_verify_matroid(tmp_path, capsys):
    doc = {"type": "matroid", "ground": ["1", "2", "3"], "bases": [["1", "2"], ["1", "3"], ["2", "3"]]}
    path = tmp_path / "k3.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--input", str(path)]) == 0
    assert "tutte" in capsys.readouterr().out


def test_cli_verify_representation(tmp_path, capsys):
    doc = {"type": "representation", "columns": ["1", "2", "3"], "rows": [[1, 1, 0], [0, 1, 1]]}
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--input", str(path)]) == 0
    assert "bicycle" in capsys.readouterr().out


def test_cli_tutte_and_bicycle(tmp_path, capsys):
    rep = {"type": "representation", "columns": ["1", "2", "3"], "rows": [[1, 1, 0], [1, 0, 1], [0, 1, 1]]}
    path = tmp_path / "k3rep.json"
    path.write_text(json.dumps(rep))
    assert main(["tutte", "--input", str(path)]) == 0
    records = json.loads(capsys.readouterr().out)
    assert {"x": 2, "y": 0, "c": 1} in records
    assert main(["bicycle-dim", "--input", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "0"
    assert main(["fundamental-graph", "--basis", "1,2", "--input", str(path)]) == 0
    graph_doc = json.loads(capsys.readouterr().out)
    assert sorted(map(tuple, graph_doc["edges"])) == [("1", "3"), ("2", "3")]


def test_cli_ppt(tmp_path, capsys):
    doc = {"type": "matrix", "labels": ["p", "q", "r"],
           "rows": [[1, 1, 1], [1, 0, 1], [1, 1, 1]]}
    path = tmp_path / "mat.json"
    path.write_text(json.dumps(doc))
    assert main(["ppt", "--on", "p", "--input", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["type"] == "matrix"
    assert main(["from-matrix", "--input", str(path)]) == 0
    assert parse_document(capsys.readouterr().out) == M0


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["validate", "--input", str(bad)]) == 2
    capsys.readouterr()
    improper = tmp_path / "improper.json"
    improper.write_text(json.dumps({"type": "setsystem", "ground": ["a"], "sets": []}))
    assert main(["poly", "--which", "q1", "--input", str(improper)]) == 1
    capsys.readouterr()
    big = tmp_path / "big.json"
    big.write_text(
        json.dumps({"type": "setsystem", "ground": [f"x{i}" for i in range(16)], "sets": [[]]})
    )
    assert main(["poly", "--which", "Q", "--input", str(big)]) == 2
    capsys.readouterr()
    labels = [f"v{i}" for i in range(30)]
    path = tmp_path / "path30.json"
    path.write_text(
        json.dumps({"type": "graph", "vertices": labels, "edges": [list(e) for e in zip(labels, labels[1:])]})
    )
    for via in ([], ["--via-system"]):
        assert main(["poly", "--which", "q1", *via, "--input", str(path)]) == 2
        capsys.readouterr()
    unknown = tmp_path / "word.json"
    unknown.write_text(M0_DOC)
    assert main(["apply", "--word", "+z", "--input", str(unknown)]) == 2
    capsys.readouterr()
    singular = tmp_path / "sing.json"
    singular.write_text(
        json.dumps({"type": "matrix", "labels": ["a", "b"], "rows": [[0, 0], [0, 0]]})
    )
    assert main(["ppt", "--on", "a", "--input", str(singular)]) == 1
    capsys.readouterr()


def test_cli_stdin(m0_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(M0_DOC))
    assert main(["poly", "--which", "q2", "--input", "-"]) == 0
    assert capsys.readouterr().out.strip() == "[3,4,1]"
