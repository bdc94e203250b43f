"""Tests of the benchmark itself, on reduced sizes.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "cube-scan": {"graphs": [5, 6, 7], "q2_q3_max_n": 6, "tutte": [(6, 3), (7, 4)]},
    "verify-small": {"vf_closed": [3, 4, 4], "delta": [2, 3, 4], "representations": [3, 4]},
    "flip-emit": {"graphs": [5, 6, 7], "word_flips": 8},
}
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def small(monkeypatch):
    for name, sizes in SMALL.items():
        monkeypatch.setitem(run.WORKLOADS, name, (run.WORKLOADS[name][0], sizes))


def corrupt(text: str) -> str:
    """A wrong output of the same shape as the given one."""
    try:
        value = json.loads(text)
    except ValueError:
        if text.startswith("ok"):
            return text.replace("ok", "FAIL", 1)
        return f"{int(text) + 1}\n"
    if isinstance(value, int):
        return f"{value + 1}\n"
    if isinstance(value, list):
        value = value[:-1]
    elif "value" in value:  # recursion trace
        value["value"] = [c + 1 for c in value["value"]]
    elif "matrix" in value:  # from-graph
        value["setsystem"]["sets"] = value["setsystem"]["sets"][:-1]
    elif "sets" in value:
        value["sets"] = value["sets"][:-1]
    else:  # matrix document
        value["rows"][0][0] ^= 1
    return workloads.canonical(value)


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_same_seed_gives_identical_documents(workload, tmp_path):
    def documents(seed, name):
        directory = tmp_path / name
        run.setup(workload, seed, directory, SMALL[workload])
        return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}

    first = documents(7, "a")
    assert first and first == documents(7, "b")
    assert first != documents(8, "c")


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_checks_accept_real_and_reject_corrupted_outputs(workload, tmp_path):
    lib, commands = run.setup(workload, 3, tmp_path / "docs", SMALL[workload])
    for command in commands:
        _, code, text, _ = run.run_command(lib, command.argv)
        assert code == 0, command.argv
        assert command.check(text, lib), command.argv
        assert not command.check(corrupt(text), lib), command.argv


def test_corrupted_output_counts_as_failed(small, monkeypatch):
    real = run.run_command
    target = None

    def corrupting(lib, argv):
        nonlocal target
        target = target or argv
        seconds, code, text, err = real(lib, argv)
        return seconds, code, corrupt(text) if argv == target else text, err

    monkeypatch.setattr(run, "run_command", corrupting)
    result, _ = run.run_workload("flip-emit", 1, 0.5, trace=False)
    passes = result["attempted"] // (len(SMALL["flip-emit"]["graphs"]) * 6)
    assert result["failed"] == passes
    assert result["correct"] is False


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(SMALL))
def test_every_metric_prints_with_name_and_unit(workload, trace, small, capsys):
    assert run.main(["--workload", workload, "--seed", "2", "--seconds", "0.3", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}") for line in lines)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_smoke_run_finishes_in_seconds(small):
    start = time.perf_counter()
    for workload in SMALL:
        result, _ = run.run_workload(workload, 5, 0.2, trace=False)
        assert result["correct"]
    assert time.perf_counter() - start < 30


def test_tracer_wraps_every_binding_and_restores(tmp_path):
    lib, commands = run.setup("verify-small", 1, tmp_path / "docs", SMALL["verify-small"])
    originals = (lib.cli.poly_direct, lib.recursion.is_vf_closed, lib.SetSystem.loopc)
    tracer = spans.Tracer(lib)
    tracer.install()
    try:
        assert lib.cli.poly_direct is not originals[0]
        assert lib.recursion.is_vf_closed is lib.delta.is_vf_closed is not originals[1]
        for i, command in enumerate(commands):
            tracer.command[0] = i
            run.run_command(lib, command.argv)
    finally:
        tracer.uninstall()
    assert (lib.cli.poly_direct, lib.recursion.is_vf_closed, lib.SetSystem.loopc) == originals
    summary = tracer.summary()
    assert summary["calls"]["cli.main"] == len(commands)
    assert summary["calls"]["delta.is_vf_closed"] > 0 and summary["exchange_checks_under_vf"] > 0
    # self times telescope: together they are the time of the root spans
    roots = sum(e - s for s, e, p in zip(tracer.starts, tracer.ends, tracer.parents) if p < 0)
    assert sum(summary["self_s"].values()) == pytest.approx(roots)


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "cube-scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
