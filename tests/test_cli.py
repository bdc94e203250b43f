"""Command-line surface: documents, words, subcommands, exit codes."""

import hashlib
import json
import random

import pytest

from deltapoly import (
    DeltaPolyError,
    DocumentError,
    GroundSet,
    GroundSetError,
    Matroid,
    SetSystem,
    binary_matroid_from_matrix,
    full_flip_explicit,
    is_delta_matroid,
    is_vf_closed,
    poly_direct,
    q1_recursive,
    uniform_matroid,
)
from deltapoly.cli import (
    INPUT_ERRORS,
    MATH_ERRORS,
    apply_operation_word,
    canonical_json,
    emit_document,
    main,
    parse_document,
    parse_operation_word,
)
from deltapoly.delta import _exchange_axiom
from support import (
    FIG_ORBIT,
    M0,
    random_graph,
    simple_representation,
    twisted_graph_systems,
    uniform_tutte,
    vf_closed_corpus,
    wide_set_system,
)

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
    emitted = emit_document(system)
    assert parse_document(emitted) == system
    assert emit_document(parse_document(emitted)) == emitted


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
    # bases are read like sets: a repeated basis or label and an unknown label are refused
    for bases, error, message in (
        ([["1", "2"], ["1", "2"], ["2", "3"]], DocumentError, r"duplicate basis \['1', '2'\]"),
        ([["1", "2"], ["1", "1"]], DocumentError, r"basis \['1', '1'\] repeats an element"),
        ([["1", "2"], ["1", "4"]], GroundSetError, "element '4' not in ground set"),
    ):
        with pytest.raises(error, match=message):
            parse_document(json.dumps({"type": "matroid", "ground": ["1", "2", "3"], "bases": bases}))
    # a label list given as a string or an object would be read by its characters or keys
    for doc in (
        {"type": "setsystem", "ground": "ab", "sets": [[]]},
        {"type": "setsystem", "ground": {"a": 1, "b": 2}, "sets": [[]]},
        {"type": "setsystem", "ground": ["a", "b"], "sets": "ab"},
        {"type": "graph", "vertices": "ab", "edges": []},
        {"type": "graph", "vertices": ["a", "b"], "edges": ["ab"]},
        {"type": "graph", "vertices": ["a", "b"], "edges": [{"a": 1, "b": 2}]},
        {"type": "graph", "vertices": ["a", "b"], "edges": [], "loops": "a"},
        {"type": "matrix", "labels": "ab", "rows": [[0, 0], [0, 0]]},
        {"type": "matroid", "ground": "12", "bases": [["1"]]},
        {"type": "matroid", "ground": ["1", "2"], "bases": ["12"]},
        {"type": "representation", "columns": "12", "rows": [[1, 1]]},
    ):
        with pytest.raises(DocumentError, match="must be a JSON array"):
            parse_document(json.dumps(doc))
    # matrix entries are the integers 0 and 1, not JSON booleans or floats
    for rows in ([[True, False], [False, True]], [[1.0, 0], [0, 1]]):
        for doc in (
            {"type": "matrix", "labels": ["a", "b"], "rows": rows},
            {"type": "representation", "columns": ["a", "b"], "rows": rows},
        ):
            with pytest.raises(DocumentError, match="entries must be the integers 0 or 1"):
                parse_document(json.dumps(doc))


@pytest.mark.parametrize("n", (0, 1, 7, 8, 9, 16, 17, 20))
def test_cli_validate_prints_canonical_form(n, tmp_path, capsys):
    rng = random.Random(n)
    system = wide_set_system(rng, n)
    labels = list(system.ground.labels)
    sets = [[labels[i] for i in range(n) if m >> i & 1] for m in system.family]
    expected = canonical_json({"type": "setsystem", "ground": labels, "sets": sets}) + "\n"
    shuffled = [rng.sample(s, len(s)) for s in sets]
    rng.shuffle(shuffled)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"type": "setsystem", "ground": labels, "sets": shuffled}))
    assert main(["validate", "--input", str(path)]) == 0
    assert capsys.readouterr().out == expected


ESCAPED_LABELS = ('"', "\\", "\u00e9", "\n", "\u2028", "\U0001f600")


@pytest.mark.parametrize("n", (0, 1, 7, 8, 9, 16, 17, 20))
def test_emit_document_matches_json_dumps(n):
    # every label needs escaping, so each byte column of the label tables is exercised
    labels = [f"{ESCAPED_LABELS[i % len(ESCAPED_LABELS)]}{i}" for i in range(n)]
    wide = wide_set_system(random.Random(n), n)
    bases = tuple(m for m in range(1 << n) if m.bit_count() == min(2, n)) if n <= 9 else (3, 5, 6, 9, 10, 12)
    system = SetSystem(GroundSet(tuple(labels)), wide.family)
    matroid = Matroid(SetSystem(system.ground, bases))

    def sets(family):
        return [list(system.ground.labels_of(m)) for m in family]

    for value, doc in (
        (system, {"type": "setsystem", "ground": labels, "sets": sets(system.family)}),
        (SetSystem(system.ground, ()), {"type": "setsystem", "ground": labels, "sets": []}),
        (matroid, {"type": "matroid", "ground": labels, "bases": sets(matroid.carrier.family)}),
    ):
        text = emit_document(value)
        assert text == json.dumps(doc, sort_keys=True, separators=(",", ":"))
        assert parse_document(text) == value


def test_cli_setsystem_parse_errors(tmp_path, capsys):
    cases = (
        ([["a"], ["a", "b", "a"]], "error: set ['a', 'b', 'a'] repeats an element"),
        ([["a", "b"], [], ["b", "a"]], "error: duplicate set ['b', 'a']"),
        ([["a"], ["b", "z"]], "error: element 'z' not in ground set ('a', 'b')"),
        (["ab", []], "error: a set must be a JSON array, got 'ab'"),
        ([{"a": 1}], "error: a set must be a JSON array, got {'a': 1}"),
        # the first bad set is named, whichever check it fails
        ([["a"], [], ["b", "b"], ["a", "b"], ["a"]], "error: set ['b', 'b'] repeats an element"),
        ([[], ["a"], ["b"], ["a", "y"], ["b", "b"]], "error: element 'y' not in ground set ('a', 'b')"),
        ([[], ["a"], ["b"], "ab", ["a"]], "error: a set must be a JSON array, got 'ab'"),
        ([[], ["a"], {"b": 1}, ["z"]], "error: a set must be a JSON array, got {'b': 1}"),
    )
    path = tmp_path / "bad.json"
    for sets, message in cases:
        path.write_text(json.dumps({"type": "setsystem", "ground": ["a", "b"], "sets": sets}))
        assert main(["validate", "--input", str(path)]) == 2
        assert capsys.readouterr().err.strip() == message
    path.write_text(json.dumps({"type": "setsystem", "ground": "ab", "sets": [[]]}))
    assert main(["validate", "--input", str(path)]) == 2
    assert capsys.readouterr().err.strip() == "error: ground must be a JSON array, got 'ab'"


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


def test_cli_tree(m0_path, tmp_path, capsys):
    assert main(["tree", "--which", "q1", "--input", m0_path, "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "3y + 5" in out and "\\p" in out
    assert main(["tree", "--which", "Q1", "--input", m0_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == [16, 10, 1]
    assert [b["op"] for b in doc["branches"]] == ["\\p", "*p\\p", "~*p\\p"]
    assert tree_digests(tmp_path, capsys) == TREE_DIGESTS


def tree_inputs() -> dict:
    corpus = vf_closed_corpus(seed=4, count=30, n_max=6)
    return {
        "M0": M0,
        "vf5": next(s for s in corpus if s.n == 5),
        "vf6": next(s for s in corpus if s.n == 6),
    }


def tree_digests(tmp_path, capsys) -> dict:
    """sha256 prefixes of every tree output and of the multiplicative render."""

    def sha(text: str) -> str:
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    out = {}
    for name, system in tree_inputs().items():
        path = tmp_path / f"{name}.json"
        path.write_text(emit_document(system))
        for which in ("q1", "q2", "q3", "Q1"):
            for fmt in ("json", "text"):
                assert main(["tree", "--which", which, "--format", fmt, "--input", str(path)]) == 0
                out[f"{name} {which} {fmt}"] = sha(capsys.readouterr().out)
        _, trace = q1_recursive(system, use_multiplicative=True)
        out[f"{name} q1 multiplicative render"] = sha(trace.render())
    return out


# recorded before q1, q2/q3 and Q1 shared one recursion driver
TREE_DIGESTS = {
    "M0 q1 json": "2ffe39f0b70e959f",
    "M0 q1 text": "7f0d08dad9bc1c4d",
    "M0 q2 json": "be4794b276e08f9b",
    "M0 q2 text": "f96350ab29c06355",
    "M0 q3 json": "407c3b2e9940bbd4",
    "M0 q3 text": "438083794be879d4",
    "M0 Q1 json": "f8a41b413c643c16",
    "M0 Q1 text": "c5a503f97bd65345",
    "M0 q1 multiplicative render": "3270687a2fbebc8c",
    "vf5 q1 json": "eb2e577fb830a52e",
    "vf5 q1 text": "113294dded5a3cb6",
    "vf5 q2 json": "5950b111fe95077d",
    "vf5 q2 text": "c359fbd7764c93ae",
    "vf5 q3 json": "6e35972de74ba105",
    "vf5 q3 text": "e27bc49051539b46",
    "vf5 Q1 json": "6818b9dfe61d6846",
    "vf5 Q1 text": "c36657f7d5a6f828",
    "vf5 q1 multiplicative render": "76ca15a0b3b12919",
    "vf6 q1 json": "1c29842010ad0641",
    "vf6 q1 text": "92daca67751f034a",
    "vf6 q2 json": "fe191c66ac316ec1",
    "vf6 q2 text": "c416d67b7b499ae2",
    "vf6 q3 json": "c4681121c6f2e3ae",
    "vf6 q3 text": "725d9abfcd830a23",
    "vf6 Q1 json": "e9b4e9ae63bdecb9",
    "vf6 Q1 text": "0896ff6340327b50",
    "vf6 q1 multiplicative render": "04842901666de6ef",
}


def test_cli_multivariate_records_are_pinned(tmp_path, capsys):
    inputs = tree_inputs()
    out = {}
    for name in ("M0", "vf6"):
        path = tmp_path / f"{name}.json"
        path.write_text(emit_document(inputs[name]))
        for fmt in ("json", "text"):
            assert main(["poly", "--which", "Q", "--format", fmt, "--input", str(path)]) == 0
            out[f"{name} Q {fmt}"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16]
    assert out == Q_RECORD_DIGESTS


# recorded while multivariate_Q scanned the family in every cell and to_records
# looked up the labels of A, B and C per cell
Q_RECORD_DIGESTS = {
    "M0 Q json": "fa2080246a3e7c3a",
    "M0 Q text": "ce7fd137e7f5decf",
    "vf6 Q json": "65eb0d3a0ad890c1",
    "vf6 Q text": "46b2980285aefc06",
}


def test_cli_family_outputs_are_pinned(tmp_path, capsys):
    assert writer_digests(tmp_path, capsys) == WRITER_DIGESTS


def writer_digests(tmp_path, capsys) -> dict:
    """sha256 prefixes of every command that writes a family, on one seeded 10-vertex graph."""
    graph = random_graph(random.Random(10), 10)
    edges = [list(e) for e in graph.edges()]
    gdoc = {"type": "graph", "vertices": list(graph.vertices()), "edges": edges, "loops": graph.loops()}
    gpath, mpath, spath = tmp_path / "g10.json", tmp_path / "m10.json", tmp_path / "s10.json"
    gpath.write_text(json.dumps(gdoc))

    def run(*argv):
        assert main([*argv]) == 0
        return capsys.readouterr().out

    out = {"from-graph": run("from-graph", "--input", str(gpath))}
    docs = json.loads(out["from-graph"])
    mpath.write_text(json.dumps(docs["matrix"]))
    spath.write_text(json.dumps(docs["setsystem"]))
    out["from-matrix"] = run("from-matrix", "--input", str(mpath))
    out["ppt"] = run("ppt", "--on", ",".join(docs["setsystem"]["sets"][-1]), "--input", str(mpath))
    out["validate"] = run("validate", "--input", str(spath))
    out["apply"] = run("apply", "--word", "\\a[b,c,d,e,f,g,h,i]*b+c~*d+e*{f,g}", "--input", str(spath))
    out["orbit"] = run("orbit", "--generators", "fullv", "--input", str(spath))
    return {name: hashlib.sha256(text.encode()).hexdigest()[:16] for name, text in out.items()}


# recorded while the family documents were still built as dicts and written by json.dumps
WRITER_DIGESTS = {
    "from-graph": "e5f31361d58dd9f3",
    "from-matrix": "10d1e13141daca22",
    "ppt": "7ab07cf95504c97b",
    "validate": "10d1e13141daca22",
    "apply": "3969295f2c6c5e50",
    "orbit": "e3766f3f9531f7c7",
}


def test_cli_check(m0_path, capsys):
    assert main(["check", "dm", "--input", m0_path]) == 0
    assert json.loads(capsys.readouterr().out) is True
    assert main(["check", "divisible", "--element", "p", "--input", m0_path]) == 0
    assert json.loads(capsys.readouterr().out) == {"divisible": True, "strongly_divisible": True}


def test_cli_vf_closure_on_binary_inputs(tmp_path, capsys, monkeypatch):
    system = twisted_graph_systems(seed=8, count=1, n_min=8, n_max=8)[0]
    path = tmp_path / "twisted8.json"
    path.write_text(emit_document(system))
    input_checks = []

    def counting(s):
        input_checks.append(s == system)
        return is_delta_matroid(s)

    for module in ("deltapoly.cli", "deltapoly.delta"):
        monkeypatch.setattr(f"{module}.is_delta_matroid", counting)
    assert main(["verify", "--input", str(path)]) == 0
    assert sum(input_checks) == 1  # the input's exchange axiom is checked once
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(line.startswith("ok  ") for line in lines)
    assert "ok  Q1 recursion vs direct" in lines
    assert main(["tree", "--which", "Q1", "--input", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == poly_direct(system, "Q1").coeff_list()
    system = twisted_graph_systems(seed=10, count=1, n_min=10, n_max=10)[0]
    path = tmp_path / "twisted10.json"
    path.write_text(emit_document(system))

    def no_images(s):
        raise AssertionError("a binary input enumerated its flip images")

    monkeypatch.setattr("deltapoly.delta._flip_images_are_delta_matroids", no_images)
    assert main(["check", "vfclosed", "--input", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "true"


def test_cli_enumeration_refusal_exits_2(tmp_path, capsys, monkeypatch):
    # U(2,4) is not binary: the sum of |F|^2 over its 80 flip images is 7,962
    path = tmp_path / "u24.json"
    path.write_text(emit_document(uniform_matroid(2, 4).carrier))
    monkeypatch.setattr("deltapoly.errors.MAX_CELLS", 200)
    assert main(["check", "vfclosed", "--input", str(path)]) == 2
    assert "vf-closure flip images at n=4 needs" in capsys.readouterr().err
    assert main(["check", "vfclosed", "--force", "--input", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert main(["orbit", "--generators", "single", "--input", str(path)]) == 2
    assert "single-flip orbit at n=4 needs" in capsys.readouterr().err


def test_cli_vf_closure_enumeration_counts_exchange_pairs(tmp_path, capsys):
    # {∅} on 21 labels is above the certificate's limit; its flip images pass 2^20 member pairs
    # after a few thousand small exchange checks, where counting held members let them run for 30 s
    path = tmp_path / "empty21.json"
    path.write_text(json.dumps({"type": "setsystem", "ground": [f"e{i}" for i in range(21)], "sets": [[]]}))
    assert main(["check", "vfclosed", "--input", str(path)]) == 2
    assert "vf-closure flip images at n=21 needs 1,050,724 cells" in capsys.readouterr().err


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_library_error_has_one_exit_code():
    for cls in _subclasses(DeltaPolyError):
        assert (cls in MATH_ERRORS) + (cls in INPUT_ERRORS) == 1, cls


def test_cli_verify_checks_a_non_binary_input_once(tmp_path, capsys, monkeypatch):
    # the criterion-04 counterexample on fresh labels, so no verdict is kept from elsewhere
    labels = ["u1", "u2", "u3"]
    system = SetSystem.from_sets(labels, [[a for a in labels if k >> labels.index(a) & 1] for k in range(1, 8)])
    path = tmp_path / "every_nonempty.json"
    path.write_text(emit_document(system))
    runs = []

    def counting(s):
        runs.append(s == system)
        return _exchange_axiom(s)

    monkeypatch.setattr("deltapoly.delta._exchange_axiom", counting)
    assert main(["verify", "--input", str(path)]) == 0
    assert sum(runs) == 1  # is_delta_matroid and is_vf_closed share one brute-force run
    out = capsys.readouterr().out
    assert "ok  q1 recursion vs direct" in out
    assert "ok  input not vf-closed; Q1 three-term sum differs from the direct value" in out


def test_cli_verify_runs_q2_q3_where_their_hypotheses_hold(tmp_path, capsys):
    # {∅, V} is not a delta-matroid, but its whole-ground dual pivot and loopc are
    path = tmp_path / "ends.json"
    doc = {"type": "setsystem", "ground": ["a", "b", "c"], "sets": [[], ["a", "b", "c"]]}
    path.write_text(json.dumps(doc))
    assert main(["verify", "--input", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    recursion_lines = [line for line in lines if "recursion" in line or "Q1 three-term" in line]
    assert recursion_lines == ["ok  q2 recursion vs direct", "ok  q3 recursion vs direct"]


def test_cli_verify_runs_is_vf_closed_once(m0_path, capsys, monkeypatch):
    calls = []

    def counting(s):
        calls.append(s)
        return is_vf_closed(s)

    for module in ("deltapoly.cli", "deltapoly.recursion"):
        monkeypatch.setattr(f"{module}.is_vf_closed", counting)
    assert main(["verify", "--input", m0_path]) == 0
    assert len(calls) == 1
    assert "ok  Q1 recursion vs direct" in capsys.readouterr().out.splitlines()


def test_cli_verify_reads_q2_q3_off_vf_closure(m0_path, capsys, monkeypatch):
    calls = []

    def counting(system, kind):
        calls.append(kind)
        return full_flip_explicit(system, kind)

    monkeypatch.setattr("deltapoly.recursion.full_flip_explicit", counting)
    assert main(["verify", "--input", m0_path]) == 0
    assert calls == []
    out = capsys.readouterr().out.splitlines()
    assert "ok  q2 recursion vs direct" in out and "ok  q3 recursion vs direct" in out


def test_cli_from_graph_and_verify(triangle_path, capsys):
    assert main(["from-graph", "--input", triangle_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert parse_document(json.dumps(doc["setsystem"])) == M0
    assert main(["verify", "--input", triangle_path]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and "graph roundtrip" in out
    recursion_lines = [line for line in out.splitlines() if "graph recursion vs nullity sum" in line]
    assert recursion_lines == [f"ok  graph recursion vs nullity sum {which}" for which in ("q1", "q2", "q3", "Q1")]


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


def test_cli_tutte_and_verify_on_16_columns(tmp_path, capsys):
    rep = simple_representation(random.Random(16), 16, 8)
    path = tmp_path / "rep16.json"
    path.write_text(emit_document(rep))
    assert main(["tutte", "--input", str(path)]) == 0
    records = json.loads(capsys.readouterr().out)
    assert sum(r["c"] for r in records) == len(binary_matroid_from_matrix(rep).bases())  # T(1, 1)
    assert main(["verify", "--input", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4 and all(line.startswith("ok  ") for line in lines[:3])
    assert lines[3] == "skip  multivariate and recursion suites: 16 elements, above --limit 8"


def test_cli_exit_codes(tmp_path, triangle_path, capsys, monkeypatch):
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
    # the matrix recursion expands a path in a few nodes per vertex; the set system has 2^30 cells
    for which in ("q1", "q2"):
        assert main(["poly", "--which", which, "--input", str(path)]) == 0
        assert sum(json.loads(capsys.readouterr().out)) == 2**30
    assert main(["poly", "--which", "q1", "--via-system", "--input", str(path)]) == 2
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
    u121 = tmp_path / "u121.json"
    labels = [f"e{i}" for i in range(21)]
    u121.write_text(json.dumps({"type": "matroid", "ground": labels, "bases": [[label] for label in labels]}))
    assert main(["tutte", "--input", str(u121)]) == 2
    capsys.readouterr()
    assert main(["tutte", "--force", "--input", str(u121)]) == 0
    assert json.loads(capsys.readouterr().out) == uniform_tutte(1, 21).to_records()
    ten = tmp_path / "path10.json"
    labels = [f"v{i}" for i in range(10)]
    ten.write_text(json.dumps({"type": "graph", "vertices": labels, "edges": [list(e) for e in zip(labels, labels[1:])]}))
    monkeypatch.setattr("deltapoly.errors.MAX_CELLS", 16)  # the q1 recursion of a 10-vertex path has more memo nodes
    assert main(["poly", "--which", "q1", "--input", str(ten)]) == 2
    assert "recursion on 10 vertices, one cell per memo node, needs 17 cells" in capsys.readouterr().err
    assert main(["poly", "--which", "q1", "--force", "--input", str(ten)]) == 0
    assert sum(json.loads(capsys.readouterr().out)) == 2**10
    monkeypatch.setattr("deltapoly.errors.MAX_CELLS", 4)  # every 2^3 and 3^3 table of the triangle
    assert main(["verify", "--input", triangle_path]) == 2
    capsys.readouterr()
    assert main(["verify", "--force", "--input", triangle_path]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_cli_format_only_where_a_text_rendering_exists(m0_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["validate", "--format", "text", "--input", m0_path])
    assert exit_info.value.code == 2
    assert "--format" in capsys.readouterr().err


def test_cli_force_reaches_the_support_enumeration(triangle_path, capsys, monkeypatch):
    commands = (
        ["eval", "--which", "q1", "--at", "1"],
        ["poly", "--which", "q1", "--via-system"],
        ["from-graph"],
    )
    expected = []
    for command in commands:
        assert main([*command, "--input", triangle_path]) == 0
        expected.append(capsys.readouterr().out)
    monkeypatch.setattr("deltapoly.errors.MAX_CELLS", 4)
    for command, out in zip(commands, expected):
        assert main([*command, "--input", triangle_path]) == 2
        assert "over the limit of 4" in capsys.readouterr().err
        assert main([*command, "--force", "--input", triangle_path]) == 0
        assert capsys.readouterr().out == out


def test_cli_eval_on_24_vertices_takes_the_matrix_recursion(tmp_path, capsys):
    graph = random_graph(random.Random(24), 24, edge_p=0.1)
    path = tmp_path / "graph24.json"
    path.write_text(emit_document(graph))
    for which, at_one in (("q1", 2**24), ("q2", 2**24), ("q3", 2**24), ("Q1", 3**24)):
        assert main(["eval", "--which", which, "--at", "1", "--input", str(path)]) == 0
        assert capsys.readouterr().out == f"{at_one}\n"


def test_cli_wide_representation_is_refused_before_its_column_sets(tmp_path, capsys):
    path = tmp_path / "rep26.json"
    path.write_text(emit_document(simple_representation(random.Random(3), 26, 13)))
    assert main(["tutte", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert "the 26-column, rank-13 representation's column sets needs 10,400,600 cells" in err


def test_cli_verify_force_above_the_limit(tmp_path, capsys):
    labels = [f"e{i}" for i in range(21)]
    path = tmp_path / "ones21.json"
    path.write_text(json.dumps({"type": "representation", "columns": labels, "rows": [[1] * 21]}))
    assert main(["verify", "--input", str(path)]) == 2
    capsys.readouterr()
    assert main(["verify", "--force", "--input", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4 and all(line.startswith("ok  ") for line in lines[:3])
    assert lines[3] == "skip  multivariate and recursion suites: 21 elements, above --limit 8"


def test_cli_verify_above_the_limit_says_what_it_skipped(m0_path, capsys):
    assert main(["verify", "--limit", "2", "--input", m0_path]) == 0
    assert capsys.readouterr().out == "skip  multivariate and recursion suites: 3 elements, above --limit 2\n"


def test_cli_stdin(m0_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(M0_DOC))
    assert main(["poly", "--which", "q2", "--input", "-"]) == 0
    assert capsys.readouterr().out.strip() == "[3,4,1]"


def test_cli_unreadable_input_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"type": "setsystem", "ground": ["\xe9"], "sets": [[]]}')
    for path in (missing, latin1):
        assert main(["validate", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read {path}: ")
        assert captured.err.count("\n") == 1


COERCION_DOCS = {
    "setsystem": M0_DOC,
    "graph": TRIANGLE_DOC,
    "matrix": json.dumps({"type": "matrix", "labels": ["p", "q", "r"], "rows": [[1, 1, 1], [1, 0, 1], [1, 1, 1]]}),
    "matroid": json.dumps(
        {"type": "matroid", "ground": ["p", "q", "r"], "bases": [["p", "q"], ["p", "r"], ["q", "r"]]}
    ),
    "representation": json.dumps(
        {"type": "representation", "columns": ["p", "q", "r"], "rows": [[1, 1, 0], [1, 0, 1], [0, 1, 1]]}
    ),
}

ANY_DOC = set(COERCION_DOCS)

# each command with the least flags it needs, and the document types it reads
COMMAND_READS = (
    (["validate"], ANY_DOC),
    (["apply", "--word", "+p"], ANY_DOC),
    (["poly", "--which", "q1"], ANY_DOC),
    (["eval", "--which", "q1", "--at", "1"], ANY_DOC),
    (["check", "dm"], ANY_DOC),
    (["orbit"], ANY_DOC),
    (["tree", "--which", "q1"], ANY_DOC),
    (["verify"], ANY_DOC),
    (["from-graph"], {"graph"}),
    (["from-matrix"], {"matrix"}),
    (["ppt", "--on", "p"], {"matrix"}),
    (["tutte"], {"matroid", "representation"}),
    (["fundamental-graph", "--basis", "p,q"], {"matroid", "representation"}),
    (["bicycle-dim"], {"representation"}),
)


@pytest.mark.parametrize("doc_type", sorted(COERCION_DOCS))
@pytest.mark.parametrize("command, reads", COMMAND_READS, ids=[c[0] for c, _ in COMMAND_READS])
def test_cli_commands_read_their_document_types(command, reads, doc_type, tmp_path, capsys):
    path = tmp_path / f"{doc_type}.json"
    path.write_text(COERCION_DOCS[doc_type])
    code = main([*command, "--input", str(path)])
    captured = capsys.readouterr()
    if doc_type in reads:
        assert (code, captured.err) == (0, "")
        assert "FAIL" not in captured.out
    else:
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: {command[0]} needs a {' or '.join(sorted(reads))} document\n"


@pytest.mark.parametrize("doc_type", ("graph", "matroid", "representation"))
def test_cli_verify_computes_each_direct_polynomial_once(doc_type, tmp_path, capsys, monkeypatch):
    path = tmp_path / f"{doc_type}.json"
    path.write_text(COERCION_DOCS[doc_type])
    calls = []

    def counting(system, which):
        calls.append(which)
        return poly_direct(system, which)

    monkeypatch.setattr("deltapoly.cli.poly_direct", counting)
    assert main(["verify", "--input", str(path)]) == 0
    assert sorted(calls) == ["Q1", "q1", "q2", "q3"]
    assert "FAIL" not in capsys.readouterr().out
