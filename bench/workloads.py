"""Seeded workloads: the documents each one writes and the commands it runs.

A workload is a fixed list of CLI commands over documents generated from
a seed.  The program only ever sees the documents; every command carries
its own check, which runs after the timed passes against an oracle that
does not share the code path under test.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import oracle

LABELS = "abcdefghijklmnopqrstuvwxyz"


@dataclass
class Command:
    """One CLI invocation: argv for deltapoly.cli.main, its class, and its check.

    The check receives the command's standard output and the imported
    deltapoly package and returns whether the output is correct.
    """

    argv: list[str]
    cls: str
    check: Callable[[str, object], bool]


# -- document generators ------------------------------------------------------


def random_graph(rng: random.Random, n: int) -> tuple[list[str], list[int]]:
    """Labels and adjacency rows of a random graph with half its pairs joined and half its vertices looped.

    Fixed counts give the density of edge and loop probability 1/2 without
    its spread, so that seeds differ in which graph they draw more than in
    how much work it takes.
    """
    labels = list(LABELS[:n])
    rows = [0] * n
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for i, j in rng.sample(pairs, len(pairs) // 2):
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    for i in rng.sample(range(n), n // 2):
        rows[i] |= 1 << i
    return labels, rows


def graph_doc(labels, rows) -> dict:
    n = len(labels)
    edges = [[labels[i], labels[j]] for i in range(n) for j in range(i + 1, n) if rows[i] >> j & 1]
    loops = [labels[i] for i in range(n) if rows[i] >> i & 1]
    return {"type": "graph", "vertices": labels, "edges": edges, "loops": loops}


def matrix_doc(labels, rows) -> dict:
    n = len(labels)
    return {"type": "matrix", "labels": labels, "rows": [[r >> j & 1 for j in range(n)] for r in rows]}


def setsystem_doc(labels, family) -> dict:
    """Document with members in ascending mask order, the library's canonical order."""
    return {
        "type": "setsystem",
        "ground": labels,
        "sets": [[lab for i, lab in enumerate(labels) if m >> i & 1] for m in sorted(family)],
    }


def representation_doc(rng: random.Random, ncols: int, nrows: int) -> dict:
    return {
        "type": "representation",
        "columns": [str(j + 1) for j in range(ncols)],
        "rows": [[rng.randint(0, 1) for _ in range(ncols)] for _ in range(nrows)],
    }


def simple_representation_doc(rng: random.Random, ncols: int, nrows: int) -> dict:
    """Distinct nonzero columns: a simple binary matroid, whose basis count varies little between draws."""
    vectors = rng.sample(range(1, 1 << nrows), ncols)
    return {
        "type": "representation",
        "columns": [str(j + 1) for j in range(ncols)],
        "rows": [[v >> i & 1 for v in vectors] for i in range(nrows)],
    }


def random_delta_matroid(rng: random.Random, n: int) -> tuple[list[str], list[int]]:
    """Rejection sampling as in tests/support.random_delta_matroids, at a given ground size."""
    while True:
        limit = 1 << n
        family = rng.sample(range(limit), rng.randint(1, min(limit, 12)))
        if oracle.is_delta_matroid(family):
            return list(LABELS[:n]), family


def masks_of(doc_sets, labels) -> list[int]:
    index = {lab: i for i, lab in enumerate(labels)}
    return [sum(1 << index[lab] for lab in s) for s in doc_sets]


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


class DocWriter:
    """Writes numbered documents into one directory."""

    def __init__(self, directory: str):
        self.directory = directory
        self.count = 0

    def write(self, doc: dict) -> str:
        path = os.path.join(self.directory, f"doc{self.count:03d}.json")
        self.count += 1
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path


# -- checks ---------------------------------------------------------------------


def _json_or_none(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


def _system_of(lib, doc: dict):
    value = lib.cli.parse_document(json.dumps(doc))
    if isinstance(value, lib.Representation):
        return lib.binary_matroid_from_matrix(value).carrier
    return value


# -- cube-scan ----------------------------------------------------------------------


def cube_scan(rng: random.Random, out: DocWriter, sizes) -> list[Command]:
    """Whole-cube scans on large graphs with tiny outputs, plus Tutte on wide representations."""
    commands: list[Command] = []
    for n in sizes["graphs"]:
        labels, rows = random_graph(rng, n)
        gdoc = graph_doc(labels, rows)
        path = out.write(gdoc)

        def q1_check(text: str, lib, rows=rows, n=n) -> bool:
            # both routes against the nullity definition, so also against each other
            return _json_or_none(text) == oracle.nullity_histogram(rows, n)

        def graph_poly_check(which: str, gdoc=gdoc, at=None):
            def check(text: str, lib) -> bool:
                expected = lib.graph_poly(lib.cli.parse_document(json.dumps(gdoc)), which)
                if at is None:
                    return _json_or_none(text) == expected.coeff_list()
                return text.strip() == str(expected.evaluate(at))

            return check

        cls = f"n{n}"
        commands += [
            Command(["poly", "--which", "q1", "--input", path], f"q1-nullity-{cls}", q1_check),
            Command(["poly", "--which", "q1", "--via-system", "--input", path], f"q1-system-{cls}", q1_check),
        ]
        if n <= sizes["q2_q3_max_n"]:
            commands += [
                Command(["poly", "--which", "q2", "--via-system", "--input", path], f"q2-system-{cls}", graph_poly_check("q2")),
                Command(["eval", "--which", "q3", "--at", "-1", "--input", path], f"q3-eval-{cls}", graph_poly_check("q3", at=-1)),
            ]
    for ncols, nrows in sizes["tutte"]:
        rdoc = simple_representation_doc(rng, ncols, nrows)
        path = out.write(rdoc)

        def tutte_check(text: str, lib, rdoc=rdoc) -> bool:
            records = _json_or_none(text)
            if not isinstance(records, list):
                return False
            rep = lib.cli.parse_document(json.dumps(rdoc))
            if records != lib.tutte_dc(lib.binary_matroid_from_matrix(rep)).to_records():
                return False
            # T(1, 1) counts the bases
            columns = [sum(row[j] << i for i, row in enumerate(rdoc["rows"])) for j in range(len(rdoc["columns"]))]
            rank = oracle.gf2_rank(columns)
            return sum(r["c"] for r in records) == oracle.count_bases(columns, rank)

        commands.append(Command(["tutte", "--input", path], f"tutte-{ncols}", tutte_check))
    return commands


# -- verify-small ---------------------------------------------------------------------


def _tree_check(which: str, doc: dict):
    def check(text: str, lib) -> bool:
        trace = _json_or_none(text)
        if not isinstance(trace, dict):
            return False
        return trace.get("value") == lib.poly_direct(_system_of(lib, doc), which).coeff_list()

    return check


def _table_check(doc: dict, n: int):
    def check(text: str, lib) -> bool:
        records = _json_or_none(text)
        if not isinstance(records, list) or len(records) != 3**n:
            return False
        system = _system_of(lib, doc)
        q1_all: dict[int, int] = {}
        q1_plain: dict[int, int] = {}
        for rec in records:
            q1_all[rec["d"]] = q1_all.get(rec["d"], 0) + 1
            if not rec["C"]:
                q1_plain[rec["d"]] = q1_plain.get(rec["d"], 0) + 1
        return (
            lib.UniPoly(q1_all) == lib.poly_direct(system, "Q1")
            and lib.UniPoly(q1_plain) == lib.poly_direct(system, "q1")
        )

    return check


def _verify_check(text: str, lib) -> bool:
    lines = text.splitlines()
    return bool(lines) and all(line.startswith("ok  ") for line in lines)


def verify_small(rng: random.Random, out: DocWriter, sizes) -> list[Command]:
    """Cross-oracle checks on small cases: vf-closed systems, delta-matroids, representations."""
    commands: list[Command] = []
    for k, n in enumerate(sizes["vf_closed"]):
        labels, rows = random_graph(rng, n)
        family = oracle.support_masks(rows, n)
        if rng.random() < 0.5:
            x = rng.randrange(1 << n)
            family = [m ^ x for m in family]
        doc = setsystem_doc(labels, family)
        path = out.write(doc)
        cls = f"vf{n}"
        # verify and tree Q1 both run the vf-closure check; one of them per system
        # keeps the costly commands independent of each other
        if k % 2 == 0:
            commands.append(Command(["verify", "--input", path], f"verify-{cls}", _verify_check))
        else:
            commands.append(Command(["tree", "--which", "Q1", "--input", path], f"treeQ1-{cls}", _tree_check("Q1", doc)))
        commands += [
            Command(["tree", "--which", "q2", "--input", path], f"treeq2-{cls}", _tree_check("q2", doc)),
            Command(["tree", "--which", "q1", "--input", path], f"treeq1-{cls}", _tree_check("q1", doc)),
            Command(["poly", "--which", "Q", "--input", path], f"polyQ-{cls}", _table_check(doc, n)),
        ]
    for n in sizes["delta"]:
        labels, family = random_delta_matroid(rng, n)
        doc = setsystem_doc(labels, family)
        path = out.write(doc)
        commands += [
            Command(["verify", "--input", path], f"verify-dm{n}", _verify_check),
            Command(["tree", "--which", "q1", "--input", path], f"treeq1-dm{n}", _tree_check("q1", doc)),
            Command(["poly", "--which", "Q", "--input", path], f"polyQ-dm{n}", _table_check(doc, n)),
        ]
    for ncols in sizes["representations"]:
        doc = representation_doc(rng, ncols, rng.randint(1, min(5, ncols + 1)))
        path = out.write(doc)
        commands += [
            Command(["verify", "--input", path], f"verify-rep{ncols}", _verify_check),
            Command(["tree", "--which", "q1", "--input", path], f"treeq1-rep{ncols}", _tree_check("q1", doc)),
        ]
    return commands


# -- flip-emit ---------------------------------------------------------------------------


def random_word(rng: random.Random, labels: list[str], flips: int) -> tuple[str, list[tuple[str, int]]]:
    """An operation word of single-element flips, and its steps as (operator, bit)."""
    steps = [(rng.choice(("*", "+", "~*")), 1 << rng.randrange(len(labels))) for _ in range(flips)]
    word = "".join(op + labels[bit.bit_length() - 1] for op, bit in steps)
    return word, steps


def flip_emit(rng: random.Random, out: DocWriter, sizes) -> list[Command]:
    """The set-system layer as a transformer of large families whose results are written out."""
    commands: list[Command] = []
    for n in sizes["graphs"]:
        labels, rows = random_graph(rng, n)
        family = oracle.support_masks(rows, n)
        sdoc, mdoc = setsystem_doc(labels, family), matrix_doc(labels, rows)
        gpath, mpath, spath = out.write(graph_doc(labels, rows)), out.write(mdoc), out.write(sdoc)
        on = rng.choice([m for m in family if m])
        # delete one element, restrict the rest to all but one more, then flip
        dropped = rng.randrange(n)
        keep = sorted(rng.sample([i for i in range(n) if i != dropped], n - 2))
        keep_labels = [labels[i] for i in keep]
        word, steps = random_word(rng, keep_labels, sizes["word_flips"])

        def from_graph_check(text: str, lib, mdoc=mdoc, sdoc=sdoc) -> bool:
            return _json_or_none(text) == {"matrix": mdoc, "setsystem": sdoc}

        def from_matrix_check(text: str, lib, sdoc=sdoc) -> bool:
            return _json_or_none(text) == sdoc

        def ppt_check(text: str, lib, rows=rows, on=on, labels=labels) -> bool:
            got = _json_or_none(text)
            if not isinstance(got, dict) or got.get("labels") != labels:
                return False
            out_rows = [sum(v << j for j, v in enumerate(r)) for r in got["rows"]]
            return oracle.ppt_relation_holds(rows, out_rows, on, len(labels))

        def apply_check(text: str, lib, family=family, keep=keep, keep_labels=keep_labels, steps=steps) -> bool:
            got = _json_or_none(text)
            if not isinstance(got, dict) or got.get("ground") != keep_labels:
                return False
            result = frozenset(masks_of(got["sets"], keep_labels))
            # the inverse word (the same involutions in reverse order) gives back the input
            for op, bit in reversed(steps):
                result = oracle.FLIPS[op](result, bit)
            return result == oracle.restrict(family, sum(1 << i for i in keep))

        def orbit_check(text: str, lib, family=family, labels=labels) -> bool:
            got = _json_or_none(text)
            if not isinstance(got, list):
                return False
            # the whole walk, so also its length and its first member, the input
            emitted = [oracle.indicator(masks_of(d["sets"], labels)) for d in got]
            return emitted == oracle.fullv_orbit(family, len(labels))

        def validate_check(text: str, lib, sdoc=sdoc) -> bool:
            return text == canonical(sdoc)

        on_labels = ",".join(lab for i, lab in enumerate(labels) if on >> i & 1)
        full_word = f"\\{labels[dropped]}[{','.join(keep_labels)}]{word}"
        cls = f"n{n}"
        commands += [
            Command(["from-graph", "--input", gpath], f"from-graph-{cls}", from_graph_check),
            Command(["from-matrix", "--input", mpath], f"from-matrix-{cls}", from_matrix_check),
            Command(["ppt", "--on", on_labels, "--input", mpath], f"ppt-{cls}", ppt_check),
            Command(["apply", "--word", full_word, "--input", spath], f"apply-{cls}", apply_check),
            Command(["orbit", "--generators", "fullv", "--input", spath], f"orbit-{cls}", orbit_check),
            Command(["validate", "--input", spath], f"validate-{cls}", validate_check),
        ]
    return commands
