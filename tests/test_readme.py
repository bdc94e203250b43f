"""The README's library tour runs against the current package."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs():
    text = README.read_text(encoding="utf-8")
    tour = re.search(r"^## Library tour\n.*?^```python\n(.*?)^```", text, re.S | re.M)
    assert tour, "README.md has no python block under '## Library tour'"
    exec(compile(tour.group(1), "README.md", "exec"), {})
