"""Benchmark for the deltapoly command-line tool.

Runs one seeded workload through ``deltapoly.cli.main(argv)`` in this
process: a closed loop with one client and no threads, so each command
starts when the previous one has returned.  A pass runs the workload's
fixed command list once; the run makes as many whole passes as fit in
``--seconds`` (at least one) and times each command by its median over
the passes.

    python3 bench/run.py --workload cube-scan --seed 1 --seconds 36 --trace 0

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced passes and prints the per-layer
metrics of the traced ones.  Outputs are checked after the timed passes.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

SETUP_REPEATS = 3
TAIL_BEYOND = 10  # samples the tail percentile leaves above it

# why each mix looks the way it does is recorded in BENCHMARK.json and bench/BASELINE.md
WORKLOADS = {
    "cube-scan": (
        workloads.cube_scan,
        {"graphs": [10] * 6 + [11] * 2 + [12] * 2, "q2_q3_max_n": 11, "tutte": [(12, 5)] * 2},
    ),
    "verify-small": (
        workloads.verify_small,
        {"vf_closed": [4] * 6 + [5] * 6 + [6] * 24, "delta": [2, 3, 4, 5, 6] * 6, "representations": [4, 5, 5, 6]},
    ),
    "flip-emit": (
        workloads.flip_emit,
        {"graphs": [12] * 4 + [13] * 4 + [14] * 3 + [15] * 2, "word_flips": 8},
    ),
}


class SetupError(Exception):
    """The checkout cannot be benchmarked."""


def import_library():
    """Import deltapoly afresh from this checkout's source tree."""
    src = ROOT / "src"
    if not (src / "deltapoly" / "__init__.py").is_file():
        raise SetupError(f"no deltapoly sources under {src}")
    for name in [n for n in sys.modules if n == "deltapoly" or n.startswith("deltapoly.")]:
        del sys.modules[name]
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    lib = importlib.import_module("deltapoly")
    importlib.import_module("deltapoly.cli")
    if Path(lib.__file__).resolve().parent != (src / "deltapoly").resolve():
        raise SetupError(f"deltapoly imported from {lib.__file__}, not from {src}")
    return lib


def setup(workload: str, seed: int, directory: Path, sizes=None):
    """Import the library, then generate and write the workload's documents."""
    build, default_sizes = WORKLOADS[workload]
    directory.mkdir(parents=True)
    lib = import_library()
    commands = build(random.Random(seed), workloads.DocWriter(str(directory)), sizes or default_sizes)
    if len(commands) <= TAIL_BEYOND:
        raise SetupError(f"{workload} has {len(commands)} commands; the tail needs more than {TAIL_BEYOND}")
    return lib, commands


def run_command(lib, argv):
    """One closed-loop call; returns seconds, exit code (None if it raised), stdout and stderr.

    If the command raised, stderr ends with the traceback.
    """
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lib.cli.main(argv)
    except (Exception, SystemExit):
        code = None
        traceback.print_exc(file=err)
    return perf_counter() - start, code, out.getvalue(), err.getvalue()


class Run:
    """Timed passes over one command list, with outputs kept for checking."""

    def __init__(self, lib, commands, directory: Path):
        self.lib = lib
        self.commands = commands
        self.directory = directory
        # per pass and command: seconds, exit code (None if it raised), output digest
        self.latencies: list[list[float]] = []
        self.codes: list[list[int | None]] = []
        self.digests: list[list[bytes]] = []
        self.emit_bytes = 0

    def run_pass(self, tracer=None) -> float:
        first = not self.digests
        latencies, codes, digests = [], [], []
        for i, command in enumerate(self.commands):
            if tracer is not None:
                tracer.command[0] = i
            seconds, code, text, err = run_command(self.lib, command.argv)
            if code != 0 and first:
                print(f"bench: {' '.join(command.argv)} exited {code}: {err}", file=sys.stderr)
            data = text.encode()
            latencies.append(seconds)
            codes.append(code)
            digests.append(hashlib.blake2b(data, digest_size=16).digest())
            self.emit_bytes += len(data)
            if first:
                (self.directory / f"out{i:03d}.txt").write_bytes(data)
        self.latencies.append(latencies)
        self.codes.append(codes)
        self.digests.append(digests)
        return sum(latencies)

    def check(self) -> int:
        """Failed executions: a bad exit, or output unlike the first pass's, or a first output that fails its check."""
        failed = 0
        for i, command in enumerate(self.commands):
            text = (self.directory / f"out{i:03d}.txt").read_text()
            try:
                ok = command.check(text, self.lib)
            except Exception:
                ok = False
            for codes, digests in zip(self.codes, self.digests):
                failed += not (ok and codes[i] == 0 and digests[i] == self.digests[0][i])
        return failed

    @property
    def attempted(self) -> int:
        return len(self.commands) * len(self.latencies)


def passes_within(seconds: float, run_one) -> None:
    """Call run_one for whole passes while the next one is expected to end in time."""
    start = perf_counter()
    count = 0
    while True:
        run_one()
        count += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / count > seconds:
            return


def command_latencies(run: Run) -> list[float]:
    """Each command's median latency over the passes, so one slow stretch of a pass does not move it."""
    return [statistics.median(column) for column in zip(*run.latencies)]


def end_to_end(run: Run, setup_times: list[float]) -> dict:
    latencies = sorted(command_latencies(run))
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        # the highest order statistic with TAIL_BEYOND commands above it
        "latency_tail_ms": (latencies[-TAIL_BEYOND - 1] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(run: Run, tracer: spans.Tracer, traced: list[float], untraced: list[float]) -> dict:
    summary = tracer.summary()
    passes = len(traced)
    out = {}
    for name in spans.SPAN_NAMES:
        out[f"{name}.calls"] = (summary["calls"][name] / passes, "count")
        out[f"{name}.self_s"] = (summary["self_s"][name] / passes, "s")
    for module in spans.TARGETS:
        total = sum(v for k, v in summary["self_s"].items() if k.startswith(module + "."))
        out[f"{module}.self_s"] = (total / passes, "s")
    vf_calls = summary["calls"]["delta.is_vf_closed"]
    out["gf2.support_set_system.nonsingular_ratio"] = (
        tracer.minors_nonsingular / tracer.minors_tried if tracer.minors_tried else 0.0,
        "ratio",
    )
    out["delta.is_vf_closed.exchange_checks_per_call"] = (
        summary["exchange_checks_under_vf"] / vf_calls if vf_calls else 0.0,
        "count",
    )
    out["interlace.poly_direct.cube_cells"] = (tracer.cube_cells / passes, "count")
    out["cli.emit_bytes"] = (run.emit_bytes / len(run.latencies), "B")
    out["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(untraced), "ratio")
    return out


def describe(run: Run, failed: int, trace: bool, coverage: float | None) -> list[str]:
    k = len(run.commands)
    lines = [
        f"passes = {len(run.latencies)} of {k} commands each; a command's latency is its median over passes",
        f"latency_tail_ms is p{100 * (k - TAIL_BEYOND) / k:.1f} of the {k} command latencies",
        f"failed_ratio = {failed / run.attempted:.6g} ratio ({failed} of {run.attempted} commands)",
    ]
    if trace:
        lines.append(
            "nonsingular_ratio, cube_cells and emit_bytes are computed from input sizes and outputs"
        )
        lines.append(f"module self time / traced command time = {coverage:.4f}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, notes = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for line in notes:
        print(line)
    print(json.dumps(result))
    return 0


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    """Set up, run timed passes, check outputs; returns (result object, note lines)."""
    OUT.mkdir(exist_ok=True)
    base = OUT / f"{workload}-{os.getpid()}"
    try:
        setup_times = []
        for rep in range(SETUP_REPEATS):
            start = perf_counter()
            lib, commands = setup(workload, seed, base / f"docs{rep}")
            setup_times.append(perf_counter() - start)
        outputs = base / "outputs"
        outputs.mkdir()
        run = Run(lib, commands, outputs)
        tracer = None
        coverage = None
        if trace:
            tracer = spans.Tracer(lib)
            traced, untraced = [], []

            def alternate():
                untraced.append(run.run_pass())
                tracer.install()
                try:
                    traced.append(run.run_pass(tracer))
                finally:
                    tracer.uninstall()

            passes_within(seconds, alternate)
            metrics = per_layer(run, tracer, traced, untraced)
            module_self = sum(metrics[f"{m}.self_s"][0] for m in spans.TARGETS)
            coverage = module_self / statistics.mean(traced)
            tracer.write(str(OUT / f"spans-{workload}.csv.gz"), [c.cls for c in commands])
        else:
            passes_within(seconds, run.run_pass)
            metrics = end_to_end(run, setup_times)
        failed = run.check()
        notes = [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
        notes += describe(run, failed, trace, coverage)
        result = {
            "correct": failed == 0,
            "attempted": run.attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
        return result, notes
    finally:
        shutil.rmtree(base, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
