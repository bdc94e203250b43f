"""Command-line surface: interchange documents, operation words, verification.

Documents are JSON with a "type" discriminator (setsystem, graph, matrix,
matroid, representation).  Operation words apply flips and removals left
to right, e.g. "*{p,q}+r~*s\\u".  Exit codes: 0 success, 1 mathematical
failure, 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import operator
import re
import sys
from contextlib import nullcontext
from json.encoder import encode_basestring_ascii as _quote
from typing import Any

from .delta import DivisibilityStatus, divisibility, is_delta_matroid, is_even, is_vf_closed
from .errors import (
    DeltaPolyError,
    DocumentError,
    GroundSetError,
    ImproperSystemError,
    NotAGraphError,
    PivotUndefinedError,
    PreconditionError,
    SizeGuardError,
    forced,
)
from .gf2 import Gf2Matrix, ppt, support_set_system
from .graphs import Graph, graph_poly, system_to_graph
from .interlace import UniPoly, multivariate_Q, poly_direct
from .matroids import (
    Matroid,
    Representation,
    bicycle_dimension,
    binary_matroid_from_matrix,
    dual_pivot_min_distance,
    fundamental_graph,
    tutte,
    tutte_dc,
)
from .recursion import RecursionTrace, graph_recursive, recursion_hypothesis, recursive
from .setsystem import GroundSet, SetSystem, vf_orbit

EXIT_OK = 0
EXIT_MATH = 1
EXIT_INPUT = 2

MATH_ERRORS = (ImproperSystemError, PivotUndefinedError, NotAGraphError, PreconditionError)
INPUT_ERRORS = (DocumentError, GroundSetError, SizeGuardError)


# -- documents -----------------------------------------------------------------


def parse_document(text: str):
    """Parse an interchange document into its in-memory value."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "type" not in doc:
        raise DocumentError("document must be an object with a 'type' field")
    kind = doc["type"]
    try:
        if kind == "setsystem":
            return _parse_family(doc, "sets", "set")
        if kind == "graph":
            return _parse_graph(doc)
        if kind == "matrix":
            return _parse_matrix(doc)
        if kind == "matroid":
            return _parse_matroid(doc)
        if kind == "representation":
            return _parse_representation(doc)
    except DeltaPolyError:
        raise
    except (TypeError, ValueError, KeyError) as exc:
        raise DocumentError(f"malformed {kind} document: {exc}") from exc
    raise DocumentError(f"unknown document type {kind!r}")


def _array(value, what: str) -> list:
    """A list of the document; a string or an object would be read by its characters or keys."""
    if not isinstance(value, list):
        raise DocumentError(f"{what} must be a JSON array, got {value!r}")
    return value


def _parse_family(doc, key: str, noun: str) -> SetSystem:
    """Ground and label lists under ``key``; a repeated list or a repeated or unknown label is refused.

    All masks are built at once and checked together; only a family that
    fails a check is walked again set by set, to name its first bad set.
    """
    ground = GroundSet(tuple(_array(doc["ground"], "ground")))
    bit = {lab: 1 << i for i, lab in enumerate(ground.labels)}
    sets = _array(doc[key], key)
    try:
        masks = [sum(map(bit.__getitem__, s)) for s in sets]
    except (KeyError, TypeError):
        masks = []
    # distinct bits add without a carry, so a repeated label loses a bit; no set
    # gains one, so the totals are equal only if every set keeps all of its bits
    if (
        len(masks) != len(sets)
        or not {list}.issuperset(map(type, sets))
        or sum(map(int.bit_count, masks)) != sum(map(len, sets))
        or len(set(masks)) != len(masks)
    ):
        _refuse_first_bad_set(ground, bit, sets, noun)
    return SetSystem(ground, tuple(sorted(masks)))


def _refuse_first_bad_set(ground: GroundSet, bit: dict, sets: list, noun: str) -> None:
    """Raise the error of the first set that is not a list, or repeats or does not know a label or a set."""
    masks: set[int] = set()
    for s in sets:
        _array(s, f"a {noun}")
        try:
            m = sum(map(bit.__getitem__, s))
        except KeyError:
            for lab in s:
                ground.index(lab)  # raises GroundSetError for the unknown label
            raise
        if m.bit_count() != len(s):
            raise DocumentError(f"{noun} {s} repeats an element")
        if m in masks:
            raise DocumentError(f"duplicate {noun} {s}")
        masks.add(m)


def _parse_graph(doc) -> Graph:
    edges = [tuple(_array(e, "an edge")) for e in _array(doc["edges"], "edges")]
    return Graph.from_edges(_array(doc["vertices"], "vertices"), edges, _array(doc.get("loops", []), "loops"))


def _parse_matrix(doc) -> Gf2Matrix:
    return Gf2Matrix.from_rows(_array(doc["labels"], "labels"), doc["rows"])


def _parse_matroid(doc) -> Matroid:
    carrier = _parse_family(doc, "bases", "basis")
    try:
        return Matroid(carrier)
    except PreconditionError as exc:
        raise DocumentError(f"not a matroid: {exc}") from exc


def _parse_representation(doc) -> Representation:
    return Representation.from_rows(_array(doc["columns"], "columns"), doc["rows"])


def emit_document(value) -> str:
    """The canonical JSON text of a value's document, without a newline.

    It equals ``canonical_json`` of the document as a dict.  Set systems
    and matroids are written straight from label tables (see
    ``_family_text``); the other documents go through ``canonical_json``.
    """
    if isinstance(value, SetSystem):
        ground = value.ground.labels
        sets = _family_text(ground, value.family)
        return f'{{"ground":{_labels_text(ground)},"sets":{sets},"type":"setsystem"}}'
    if isinstance(value, Matroid):
        ground = value.ground.labels
        bases = _family_text(ground, value.carrier.family)
        return f'{{"bases":{bases},"ground":{_labels_text(ground)},"type":"matroid"}}'
    if isinstance(value, Graph):
        doc = {
            "type": "graph",
            "vertices": list(value.vertices()),
            "edges": [list(e) for e in value.edges()],
            "loops": value.loops(),
        }
    elif isinstance(value, Gf2Matrix):
        doc = {"type": "matrix", "labels": list(value.ground.labels), "rows": value.to_lists()}
    elif isinstance(value, Representation):
        doc = {"type": "representation", "columns": list(value.columns.labels), "rows": value.to_lists()}
    else:
        raise TypeError(f"cannot emit {type(value).__name__}")
    return canonical_json(doc)


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _labels_text(labels: tuple[str, ...]) -> str:
    return "[" + ",".join(map(_quote, labels)) + "]"


_AFTER_COMMA = operator.itemgetter(slice(1, None))


@functools.lru_cache(maxsize=64)
def _label_tables(labels: tuple[str, ...]) -> tuple[tuple[str, ...], ...]:
    """Per byte of a mask, the labels it marks as JSON text, each after a comma.

    Table k maps a byte to the quoted labels at positions 8k .. 8k+7,
    quoted as ``json.dumps`` quotes them (ASCII escapes).  The tables are
    kept per ground set, so the six systems of an orbit share them.
    """
    tables = []
    for shift in range(0, max(len(labels), 1), 8):
        table = [""]
        for lab in labels[shift : shift + 8]:
            fragment = "," + _quote(lab)
            table += [t + fragment for t in table]
        tables.append(tuple(table))
    return tuple(tables)


def _family_text(labels: tuple[str, ...], family: tuple[int, ...]) -> str:
    """The JSON array of the members' label lists, in family order.

    One comprehension per byte column joins each member's fragments; the
    leading comma of every nonempty member is cut when the lists are joined.
    """
    if not family:
        return "[]"
    first, *rest = _label_tables(labels)
    texts = [first[m & 255] for m in family]
    for shift, table in zip(range(8, 64, 8), rest):
        texts = [t + table[m >> shift & 255] for t, m in zip(texts, family)]
    return "[[" + "],[".join(map(_AFTER_COMMA, texts)) + "]]"


def _coefficients_text(poly: UniPoly) -> str:
    return json.dumps(poly.coeff_list(), separators=(",", ":"))


def _tree_text(trace: RecursionTrace) -> str:
    """The JSON text of a computation tree, each distinct node rendered once.

    The recursion memo shares the node of a repeated minor between its
    parents, so the rendered texts are kept by node identity.
    """
    texts: dict[int, str] = {}

    def node(t: RecursionTrace) -> str:
        text = texts.get(id(t))
        if text is None:
            fields = []
            if t.branches:
                children = [f'{{"child":{node(child)},"op":{_quote(op)}}}' for op, child in t.branches]
                fields.append(f'"branches":[{",".join(children)}]')
            if t.element is not None:
                fields.append(f'"element":{_quote(t.element)}')
            if t.factor is not None:
                fields.append(f'"factor":{_coefficients_text(t.factor)}')
            fields.append(f'"system":{emit_document(t.system)}')
            fields.append(f'"value":{_coefficients_text(t.value)}')
            text = texts[id(t)] = "{" + ",".join(fields) + "}"
        return text

    return node(trace)


# -- operation words -----------------------------------------------------------

_TOKEN = re.compile(r"\s*(~\*|\*|\+|\\|\[)")
_NAME = re.compile(r"\s*([A-Za-z0-9_]+)")

_WORD_KINDS = {"~*": "dualpivot", "*": "pivot", "+": "loopc", "\\": "delete"}


def parse_operation_word(text: str) -> list[tuple[str, tuple[str, ...]]]:
    """Tokenize an operation word into (operation, element labels) steps.

    Targets are a single label or a braced comma list; `[a,b]` is a
    restriction to the listed elements.
    """
    steps = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if not m:
            raise DocumentError(f"cannot read operation at position {pos} in {text!r}")
        op = m.group(1)
        pos = m.end()
        if op == "[":
            end = text.find("]", pos)
            if end < 0:
                raise DocumentError("unterminated restriction bracket")
            inner = text[pos:end].strip()
            labels = _parse_label_list(inner) if inner else ()
            steps.append(("restrict", labels))
            pos = end + 1
            continue
        kind = _WORD_KINDS[op]
        if pos < len(text) and text[pos] == "{":
            end = text.find("}", pos)
            if end < 0:
                raise DocumentError("unterminated brace in operation word")
            labels = _parse_label_list(text[pos + 1 : end])
            pos = end + 1
        else:
            m2 = _NAME.match(text, pos)
            if not m2:
                raise DocumentError(f"operation {op!r} needs a target at position {pos}")
            labels = (m2.group(1),)
            pos = m2.end()
        steps.append((kind, labels))
    return steps


def _parse_label_list(inner: str) -> tuple[str, ...]:
    labels = tuple(part.strip() for part in inner.split(",") if part.strip())
    if not labels:
        raise DocumentError("empty element list")
    return labels


def apply_operation_word(system: SetSystem, word: str) -> SetSystem:
    """Apply the word's steps left to right, each as the SetSystem method it names."""
    out = system
    for op, labels in parse_operation_word(word):
        out = getattr(out, "dual_pivot" if op == "dualpivot" else op)(labels)
    return out


# -- command handlers ------------------------------------------------------------

# how a refusal names the documents that a command reading each kind of value takes
_NEEDS = {
    Graph: "a graph",
    Gf2Matrix: "a matrix",
    Matroid: "a matroid or representation",
    Representation: "a representation",
}


def _read_input(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc


def _coerce(value, kind: type, command: str):
    """The parsed document as the kind of value its command reads.

    Every document type becomes a set system: a graph by its adjacency
    matrix, a matrix by its support system, a representation by its binary
    matroid and a matroid by its basis system.  A matroid command also takes
    a representation; ``object`` takes the document as parsed.  Any other
    pairing is an input error.
    """
    if kind is SetSystem and isinstance(value, Graph):
        value = value.matrix
    if kind is SetSystem and isinstance(value, Gf2Matrix):
        value = support_set_system(value)
    if kind in (SetSystem, Matroid) and isinstance(value, Representation):
        value = binary_matroid_from_matrix(value)
    if kind is SetSystem and isinstance(value, Matroid):
        value = value.carrier
    if not isinstance(value, kind):
        raise DocumentError(f"{command} needs {_NEEDS[kind]} document")
    return value


def _shown(args, json_text, text) -> str:
    """The output in the command's ``--format``; each rendering is a function, called only if chosen."""
    return json_text() if args.format == "json" else text()


def cmd_validate(value, args) -> str:
    return emit_document(value)


def cmd_apply(system: SetSystem, args) -> str:
    return emit_document(apply_operation_word(system, args.word))


def cmd_poly(value, args) -> str:
    if args.which == "Q":
        records = multivariate_Q(_coerce(value, SetSystem, args.command)).to_records()
        return _shown(args, lambda: json.dumps(records, separators=(",", ":")), lambda: "\n".join(map(str, records)))
    poly = _polynomial(value, args)
    return _shown(args, lambda: _coefficients_text(poly), poly.text)


def _polynomial(value, args) -> UniPoly:
    """q1, q2, q3 or Q1 of a document: a graph's by the recursion on its
    adjacency matrix unless ``poly --via-system``, any other's by its set system."""
    if isinstance(value, Graph) and not args.via_system:
        return graph_recursive(value, args.which)
    return poly_direct(_coerce(value, SetSystem, args.command), args.which)


def cmd_eval(value, args) -> str:
    return str(_polynomial(value, args).evaluate(args.at))


def cmd_check(system: SetSystem, args) -> str:
    if args.predicate == "dm":
        result: Any = is_delta_matroid(system)
    elif args.predicate == "even":
        result = is_even(system)
    elif args.predicate == "vfclosed":
        result = is_vf_closed(system)
    else:
        if not args.element:
            raise DocumentError("check divisible needs --element")
        status: DivisibilityStatus = divisibility(system, args.element)
        result = {"divisible": status.divisible, "strongly_divisible": status.strongly_divisible}
    return json.dumps(result, separators=(",", ":"))


def cmd_orbit(system: SetSystem, args) -> str:
    gen = "fullV-alternation" if args.generators == "fullv" else "all-single-element-flips"
    return "[" + ",".join([emit_document(s) for s in vf_orbit(system, gen)]) + "]"


def cmd_tree(system: SetSystem, args) -> str:
    _, trace = recursive(system, args.which)
    return _shown(args, lambda: _tree_text(trace), trace.render)


def cmd_from_graph(graph: Graph, args) -> str:
    matrix = emit_document(graph.matrix)
    system = emit_document(support_set_system(graph.matrix))
    return f'{{"matrix":{matrix},"setsystem":{system}}}'


def cmd_from_matrix(matrix: Gf2Matrix, args) -> str:
    return emit_document(support_set_system(matrix))


def cmd_ppt(matrix: Gf2Matrix, args) -> str:
    labels = _parse_label_list(args.on)
    return emit_document(ppt(matrix, matrix.ground.mask_of(labels)))


def cmd_tutte(matroid: Matroid, args) -> str:
    poly = tutte(matroid)
    return _shown(args, lambda: json.dumps(poly.to_records(), separators=(",", ":")), poly.text)


def cmd_bicycle_dim(rep: Representation, args) -> str:
    return str(bicycle_dimension(rep))


def cmd_fundamental_graph(matroid: Matroid, args) -> str:
    return emit_document(fundamental_graph(matroid, _parse_label_list(args.basis)))


def cmd_verify(value, args) -> tuple[str, int]:
    """Cross-oracle identity suites on one document: the report, and exit 1 on any mismatch."""
    lines: list[tuple[str, str]] = []  # (status, name)

    def add(name: str, ok: bool) -> None:
        lines.append(("ok" if ok else "FAIL", name))

    graph = value if isinstance(value, Graph) else None
    matroid = _coerce(value, Matroid, args.command) if isinstance(value, (Matroid, Representation)) else None
    system = _coerce(value if matroid is None else matroid, SetSystem, args.command)
    # each direct polynomial is computed where it is first compared, then reused
    direct = functools.cache(lambda which: poly_direct(system, which))

    if graph is not None:
        for which in ("q1", "q2", "q3", "Q1"):
            nullity_sum = graph_poly(graph, which)
            add(f"graph-vs-setsystem {which}", nullity_sum == direct(which))
            add(f"graph recursion vs nullity sum {which}", graph_recursive(graph, which) == nullity_sum)
        add("graph roundtrip", system_to_graph(system) == graph)
    if matroid is not None:
        t = tutte(matroid)
        add("tutte rank-sum vs deletion-contraction", t == tutte_dc(matroid))
        add("tutte diagonal vs shifted q1", t.diagonal() == direct("q1").shift_variable(-1))
        rep = matroid.representation
        if rep is not None:
            ok = bicycle_dimension(rep) == dual_pivot_min_distance(system)
            add("bicycle dimension vs dual-pivot distance", ok)
    if system.n <= args.limit:
        table = multivariate_Q(system)
        for which in ("Q1", "q1", "q2", "q3"):
            add(f"multivariate specialization {which}", table.specialize(which) == direct(which))
        # vf-closure implies the other three hypotheses; is_delta_matroid keeps its
        # verdict, so the Q1 and q1 hypotheses and the note below compute it once
        vf_closed = recursion_hypothesis(system, "Q1")
        for which in ("q1", "q2", "q3", "Q1"):
            if vf_closed or which != "Q1" and recursion_hypothesis(system, which):
                rec, _ = recursive(system, which, checked=False)
                add(f"{which} recursion vs direct", rec == direct(which))
            elif which == "Q1" and is_delta_matroid(system):
                rec, _ = recursive(system, which, checked=False)
                note = "happens to match" if rec == direct(which) else "differs from"
                add(f"input not vf-closed; Q1 three-term sum {note} the direct value", True)
    else:
        lines.append(("skip", f"multivariate and recursion suites: {system.n} elements, above --limit {args.limit}"))

    report = "\n".join(f"{status}  {name}" for status, name in lines)
    return report, EXIT_MATH if any(status == "FAIL" for status, _ in lines) else EXIT_OK


# -- argument parsing ------------------------------------------------------------


@functools.cache  # built on the first main call, not at import, then reused
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="deltapoly", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, reads: type, help: str) -> argparse.ArgumentParser:
        """A subcommand whose handler ``func`` gets the input document as a ``reads`` value."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--input", required=True, help="input document path, or - for stdin")
        p.add_argument("--force", action="store_true", help="override the cell limit")
        p.set_defaults(func=func, reads=reads)
        return p

    command("validate", cmd_validate, object, help="parse and re-emit a document canonically")

    p = command("apply", cmd_apply, SetSystem, help="apply an operation word to a set system")
    p.add_argument("--word", required=True)

    p = command("poly", cmd_poly, object, help="compute an interlace-family polynomial")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--which", choices=("Q1", "q1", "q2", "q3", "Q"), required=True)
    p.add_argument("--via-system", action="store_true", help="route graphs through the set system")

    p = command("eval", cmd_eval, object, help="evaluate a polynomial at an integer")
    p.add_argument("--which", choices=("Q1", "q1", "q2", "q3"), required=True)
    p.add_argument("--at", type=int, required=True)
    p.set_defaults(via_system=False)

    p = command("check", cmd_check, SetSystem, help="predicate checks")
    p.add_argument("predicate", choices=("dm", "even", "vfclosed", "divisible"))
    p.add_argument("--element")

    p = command("orbit", cmd_orbit, SetSystem, help="vertex-flip orbit of a set system")
    p.add_argument("--generators", choices=("fullv", "single"), default="fullv")

    p = command("tree", cmd_tree, SetSystem, help="recursive computation tree")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--which", choices=("Q1", "q1", "q2", "q3"), required=True)

    command("from-graph", cmd_from_graph, Graph, help="graph to matrix and set-system forms")

    command("from-matrix", cmd_from_matrix, Gf2Matrix, help="support set system of a matrix")

    p = command("ppt", cmd_ppt, Gf2Matrix, help="principal pivot transform of a matrix")
    p.add_argument("--on", required=True, help="comma-separated pivot elements")

    p = command("tutte", cmd_tutte, Matroid, help="Tutte polynomial of a matroid")
    p.add_argument("--format", choices=("json", "text"), default="json")

    command("bicycle-dim", cmd_bicycle_dim, Representation, help="bicycle-space dimension of a representation")

    p = command("fundamental-graph", cmd_fundamental_graph, Matroid, help="fundamental graph of a matroid basis")
    p.add_argument("--basis", required=True, help="comma-separated basis elements")

    p = command("verify", cmd_verify, object, help="run the cross-oracle identity suites")
    p.add_argument("--limit", type=int, default=8, help="skip exponential suites above this size")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with forced() if args.force else nullcontext():
            value = _coerce(parse_document(_read_input(args.input)), args.reads, args.command)
            shown = args.func(value, args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MATH_ERRORS as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_MATH
    text, code = shown if isinstance(shown, tuple) else (shown, EXIT_OK)
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
