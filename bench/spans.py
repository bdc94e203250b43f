"""Per-layer trace of deltapoly, taken from outside the library.

The tracer replaces each listed function at every binding in the loaded
deltapoly modules (including names one module imported from another,
such as ``deltapoly.cli.poly_direct``) and each listed method on its
class.  Every call records a span: name, start, end, parent span and
command id.  Spans stay in memory and are written out when the run ends.
A span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from time import perf_counter

# layer (deltapoly module) -> wrapped functions; "Class.method" names a method
TARGETS = {
    "cli": ["main", "parse_document", "emit_document", "canonical_json"],
    "setsystem": [
        "SetSystem.pivot",
        "SetSystem.loopc",
        "SetSystem.dual_pivot",
        "SetSystem.restrict",
        "full_flip_explicit",
        "vf_orbit",
    ],
    "delta": ["is_delta_matroid", "is_vf_closed"],
    "interlace": ["poly_direct", "multivariate_Q", "MultiQPoly.specialize"],
    "recursion": ["q1_recursive", "q2_q3_recursive", "Q1_recursive", "recursion_consistency"],
    "gf2": ["support_set_system", "det_nullity", "ppt"],
    "graphs": ["graph_poly", "graph_to_system", "system_to_graph"],
    "matroids": [
        "binary_matroid_from_matrix",
        "tutte",
        "tutte_dc",
        "tutte_diagonal_check",
        "bicycle_dimension",
    ],
}

SPAN_NAMES = [f"{module}.{function}" for module, functions in TARGETS.items() for function in functions]


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for name in SPAN_NAMES:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [(f"{module}.self_s", "s") for module in TARGETS]
    out += [
        ("gf2.support_set_system.nonsingular_ratio", "ratio"),
        ("delta.is_vf_closed.exchange_checks_per_call", "count"),
        ("interlace.poly_direct.cube_cells", "count"),
        ("cli.emit_bytes", "B"),
        ("trace.overhead_ratio", "ratio"),
    ]
    return out


class Tracer:
    """Installs span-recording wrappers into a loaded deltapoly package."""

    def __init__(self, lib):
        self.lib = lib
        self.names = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.commands = array("l")
        self.command = [0]  # id stamped on new spans; set by the runner
        self.stack: list[int] = []
        # counts computed from input sizes, not from inside the library
        self.minors_tried = 0
        self.minors_nonsingular = 0
        self.cube_cells = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "deltapoly" or name.startswith("deltapoly.")]
        for name_id, span_name in enumerate(SPAN_NAMES):
            module_name, _, attr = span_name.partition(".")
            owner = getattr(self.lib, module_name)
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
                attr = method
            original = owner.__dict__[attr]
            wrapper = self._wrap(name_id, original, span_name)
            targets = [(owner, attr)]
            if not cls_name:
                targets = [(m, k) for m in modules for k, v in vars(m).items() if v is original]
            for target, key in targets:
                self._restore.append((target, key, original))
                setattr(target, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._restore):
            setattr(target, key, original)
        self._restore.clear()

    def _wrap(self, name_id: int, fn, span_name: str):
        names, starts, ends, parents, commands = self.names, self.starts, self.ends, self.parents, self.commands
        stack, command = self.stack, self.command
        observe = {
            "gf2.support_set_system": self._observe_support,
            "interlace.poly_direct": self._observe_poly_direct,
        }.get(span_name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            commands.append(command[0])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def _observe_support(self, args, kwargs, result) -> None:
        self.minors_tried += 1 << args[0].n
        self.minors_nonsingular += len(result)

    def _observe_poly_direct(self, args, kwargs, result) -> None:
        which = args[1] if len(args) > 1 else kwargs["which"]
        n = args[0].ground.n
        self.cube_cells += 3**n if which == "Q1" else 1 << n

    # -- results --------------------------------------------------------------------

    def summary(self) -> dict:
        """Calls and self time per span name, and vf-closure exchange checks."""
        count = len(self.starts)
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        child = [0.0] * count
        for i in range(count):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = [0] * len(SPAN_NAMES)
        self_s = [0.0] * len(SPAN_NAMES)
        for i in range(count):
            calls[names[i]] += 1
            self_s[names[i]] += ends[i] - starts[i] - child[i]
        dm = SPAN_NAMES.index("delta.is_delta_matroid")
        vf = SPAN_NAMES.index("delta.is_vf_closed")
        nested = 0
        for i in range(count):
            if names[i] == dm:
                p = parents[i]
                while p >= 0 and names[p] != vf:
                    p = parents[p]
                nested += p >= 0
        return {
            "calls": dict(zip(SPAN_NAMES, calls)),
            "self_s": dict(zip(SPAN_NAMES, self_s)),
            "exchange_checks_under_vf": nested,
        }

    def write(self, path: str, command_classes: list[str]) -> None:
        """All spans as CSV: command id and class, span name, start, end, parent span index."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("command,class,name,start,end,parent\n")
            for i in range(len(self.starts)):
                c = self.commands[i]
                fh.write(
                    f"{c},{command_classes[c]},{SPAN_NAMES[self.names[i]]},"
                    f"{self.starts[i]:.9f},{self.ends[i]:.9f},{self.parents[i]}\n"
                )
