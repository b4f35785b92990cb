"""Span tracing of lrbp's public functions, installed from outside the package.

`Tracer.installed()` replaces each public function of `lrbp.graph`,
`lrbp.tensors`, `lrbp.engine` and `lrbp.neural` with a wrapper, in its own
module and under every alias another lrbp module imported it as (so
`engine.factor_cp` is traced as `graph.factor_cp`). Each call records a span
(function, start, end, parent) in memory; nothing is written until `save`.
"""
from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

MODULES = ("graph", "tensors", "engine", "neural")

# The public functions at the commit that defined the benchmark. The list is
# fixed so that the reported metric names stay the same when a function is
# added or deleted; a deleted one reports zero calls.
PUBLIC = {
    "graph": ("build_graph", "factor_cp", "factor_table", "joint_table", "save_graph", "load_graph"),
    "tensors": (
        "capacity_cap", "cp_expand", "cp_random", "khatri_rao", "cp_fit_als", "marginalize_product",
    ),
    "engine": (
        "init_messages", "var_to_factor_update", "factor_to_var_dense", "factor_to_var_lowrank",
        "beliefs_from_messages", "run_lbp", "exact_marginals",
    ),
    "neural": (
        "factor_slots", "graph_slot_ids", "init_layer_params", "named_arrays", "replace_arrays",
        "lrbp_forward", "lrbp_backward", "forward_stack", "backward_stack", "grad_check",
        "node_mean", "readout", "adam_init", "adam_step", "train_step", "save_checkpoint",
        "load_checkpoint",
    ),
}
TRACED = tuple(f"{m}.{f}" for m in MODULES for f in PUBLIC[m])


class Tracer:
    """In-memory span recorder.

    Span i has name `names[fn[i]]`, times `start[i]`..`end[i]` and parent
    span `parent[i]` (-1 at the top). Benchmark-level spans opened with
    `span` mark rounds and operations; every function span between two of
    them belongs to the enclosing one.
    """

    def __init__(self):
        self.names: list[str] = list(TRACED)
        self.fn: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self._stack = [-1]

    def _open(self, fid: int) -> int:
        idx = len(self.start)
        self.fn.append(fid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A benchmark-level span around the calls made inside it."""
        if name not in self.names:
            self.names.append(name)
        idx = self._open(self.names.index(name))
        try:
            yield idx
        finally:
            self._close(idx)

    def _wrap(self, fid: int, fn):
        opened, closed = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = opened(fid)
            try:
                return fn(*args, **kwargs)
            finally:
                closed(idx)

        return traced

    @contextmanager
    def installed(self):
        """Trace every public lrbp function while the block runs."""
        mods = {m: importlib.import_module(f"lrbp.{m}") for m in MODULES}
        originals = {}
        for fid, qual in enumerate(TRACED):
            mod, name = qual.split(".")
            fn = getattr(mods[mod], name, None)
            if callable(fn):
                originals[id(fn)] = (fn, self._wrap(fid, fn))
        swapped = []
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    setattr(mod, attr, originals[id(value)][1])
                    swapped.append((mod, attr, value))
        try:
            yield self
        finally:
            for mod, attr, value in swapped:
                setattr(mod, attr, value)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "fn": np.asarray(self.fn, dtype=np.int64),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "start": np.asarray(self.start, dtype=np.float64),
            "end": np.asarray(self.end, dtype=np.float64),
        }

    def save(self, path: Path) -> None:
        """Write every span; `op` is the enclosing top-level span of each."""
        arr = self.arrays()
        tops = np.flatnonzero(arr["parent"] < 0)
        op = tops[np.searchsorted(tops, np.arange(arr["fn"].size), side="right") - 1]
        np.savez(path, names=np.asarray(self.names), op=op, **arr)


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    dur = end - start
    child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=dur.size)
    return dur - child
