"""Tests of the benchmark itself: python3 -m pytest benchmarks -q"""
from __future__ import annotations

import json
import re

import numpy as np
import pytest

import run
import tracing
import workloads as wl

run.import_program()

# Small versions of each workload, fast enough for a unit test.
SMALL = {
    "loopy-lowrank": {"num_vars": 30, "num_factors": 40},
    "hub-degree": {"degrees": (8, 16)},
    "arity-crossover": {"arities": (2, 3, 4), "num_vars": 20, "per_arity": 6},
    "train-step": {"num_vars": 12, "num_factors": 10},
}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_generators_are_deterministic(workload, tmp_path):
    def files(seed, split, sub):
        paths = wl.write_inputs(workload, seed, split, tmp_path / sub, **SMALL[workload])
        return [p.read_bytes() for p in paths]

    first = files(7, "tune", "a")
    assert first == files(7, "tune", "b")
    assert first != files(8, "tune", "c")
    assert first != files(7, "held-out", "d")


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    np.testing.assert_allclose(tracing.self_times(parent, start, end), [3.0, 2.0, 1.0, 4.0])


def test_tracer_records_nesting_and_restores_functions(tmp_path):
    from lrbp import engine, graph

    original = graph.factor_cp
    tracer = tracing.Tracer()
    paths = wl.write_inputs("hub-degree", 1, "tune", tmp_path, degrees=(4,))
    g = wl.setup("hub-degree", paths, 1, "tune").graphs["D0004"]
    with tracer.span("round"), tracer.installed():
        assert engine.factor_cp is not original and graph.factor_cp is not original
        engine.run_lbp(g, wl.lbp_options())
    assert engine.factor_cp is original and graph.factor_cp is original
    arr = tracer.arrays()
    names = [tracer.names[f] for f in arr["fn"]]
    assert names[0] == "round" and names[1] == "engine.run_lbp"
    assert arr["parent"][1] == 0
    assert all(tracer.names[arr["fn"][p]] == "engine.run_lbp"
               for f, p in zip(arr["fn"], arr["parent"]) if tracer.names[f] == "graph.factor_cp")
    selfs = tracing.self_times(arr["parent"], arr["start"], arr["end"])
    assert selfs.min() >= 0.0
    assert selfs.sum() == pytest.approx(arr["end"][0] - arr["start"][0])


def test_metric_and_workload_names():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(names) == len(set(names))
    assert tuple(w["name"] for w in spec["workloads"]) == wl.WORKLOADS
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_run_is_bit_identical(workload, tmp_path):
    paths = wl.write_inputs(workload, 3, "tune", tmp_path, **SMALL[workload])

    def one_pass(traced: bool):
        state = wl.setup(workload, paths, 3, "tune")
        wl.prepare(workload, state)
        ops = wl.pass_ops(workload, state)
        tracer = tracing.Tracer()
        with tracer.installed() if traced else run.nullcontext():
            outs = run.run_pass(ops, tracer.span if traced else None)
        return outs, state, tracer

    plain, plain_state, _ = one_pass(False)
    traced, traced_state, tracer = one_pass(True)
    assert tracer.fn, "nothing was traced"
    for a, b in zip(plain, traced):
        assert a.ok and b.ok, (a.error, b.error)
        assert run.same_output(a.output, b.output)
    if workload == "train-step":
        from lrbp.neural import named_arrays

        want, got = named_arrays(plain_state.model["params"]), named_arrays(traced_state.model["params"])
        assert all(np.array_equal(want[k], got[k]) for k in want)

    result = run.trace_run(workload, paths, 3, "tune", seconds=0.0)
    assert not any(o.check_failed for o in result["outcomes"])
    assert set(result["metrics"]) == set(run.PER_LAYER)
    top = "neural.train_step" if workload == "train-step" else "engine.run_lbp"
    assert result["metrics"][f"{top}.calls"] == len(traced)
    assert result["metrics"]["graph.load_graph.calls"] == len(paths)
