"""The README's library tour and command-line examples run against the current package."""

import json
import pathlib
import re
import shlex

from deltapoly.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

# the file each README example document is saved as, by document type
EXAMPLE_FILES = {
    "setsystem": "m0.json",
    "graph": "triangle.json",
    "matrix": "mat.json",
    "matroid": "k3.json",
    "representation": "rep.json",
}


def test_library_tour_runs():
    text = README.read_text(encoding="utf-8")
    tour = re.search(r"^## Library tour\n.*?^```python\n(.*?)^```", text, re.S | re.M)
    assert tour, "README.md has no python block under '## Library tour'"
    exec(compile(tour.group(1), "README.md", "exec"), {})


def test_command_line_examples_exit_0(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    section = re.search(r"^## Command-line tool\n(.*?)^## ", text, re.S | re.M)
    assert section, "README.md has no '## Command-line tool' section"
    blocks = re.findall(r"^```(\w*)\n(.*?)^```", section.group(1), re.S | re.M)
    decoder = json.JSONDecoder()
    for body in (body for lang, body in blocks if lang == "json"):
        for start in re.finditer(r"^\{", body, re.M):  # each document starts a line
            doc, _ = decoder.raw_decode(body, start.start())
            (tmp_path / EXAMPLE_FILES[doc["type"]]).write_text(json.dumps(doc))
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(EXAMPLE_FILES.values())
    lines = [line for lang, body in blocks if not lang for line in body.splitlines() if line.startswith("deltapoly ")]
    assert lines, "the command-line section shows no deltapoly command"
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert main(shlex.split(line, comments=True)[1:]) == 0, line
        assert capsys.readouterr().err == "", line
