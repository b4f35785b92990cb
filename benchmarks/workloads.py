"""Seeded inputs, operations and output checks of the lrbp benchmark.

Each workload's graphs are generated from a seed and written as JSON files in
the format `lrbp.graph.load_graph` reads; the program only ever sees those
files. Run as a script, this module writes one workload's files:

    python3 benchmarks/workloads.py --workload loopy-lowrank --seed 1 --out DIR

The benchmark does that in a child process, so that the generator's own
memory never shows in the measured process's peak resident size.
"""
from __future__ import annotations

import argparse
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("loopy-lowrank", "hub-degree", "arity-crossover", "train-step")
# "tune" is the split a change may be developed against; "held-out" draws
# from a disjoint stream, to re-check a gain on inputs it was not tuned on.
SPLITS = ("tune", "held-out")

CARD = 4  # cardinality d of every variable
RANK = 8  # CP rank R of every generated factor
# CP weights are drawn uniform on this range. Bounded away from 0, the
# factors couple weakly enough that the iteration count to tol barely
# depends on the seed, so solve times compare across seeds.
WEIGHTS = (0.5, 1.0)
HUB_DEGREES = (64, 128, 256, 640)  # 640 underflows at this commit
CROSSOVER_ARITIES = tuple(range(2, 9))
TRAIN = {"layers": 3, "d_h": 32, "rank": 16, "lr": 1e-3}

# Tolerances of the output checks.
DENSE_TOL = 1e-9  # low-rank beliefs against the dense-payload oracle
EXACT_TOL = 1e-8  # LBP on a tree against exact marginals
SUM_TOL = 1e-12  # |row sum - 1| of a belief table


def rng_for(workload: str, seed: int, split: str, stream: int = 0) -> np.random.Generator:
    """Generator of one workload's inputs; splits and streams never overlap."""
    key = (WORKLOADS.index(workload), SPLITS.index(split), stream)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


# --------------------------------------------------------------- generation


def _lowrank_doc(unary: np.ndarray, factors, params: dict) -> dict:
    """Graph JSON document; every factor is low-rank.

    `factors` holds (scope, param_id) pairs and `params` maps a param_id to
    its (arity, d, R) weight array.
    """
    return {
        "num_vars": int(unary.shape[0]),
        "cardinality": int(unary.shape[1]),
        "unary": unary.tolist(),
        "factors": [
            {
                "scope": [int(v) for v in scope],
                "payload": {"kind": "lowrank", "param_id": pid},
                "slots": None,
            }
            for scope, pid in factors
        ],
        "params": {
            pid: {
                "arity": int(w.shape[0]),
                "d": int(w.shape[1]),
                "rank": int(w.shape[2]),
                "weights": w.tolist(),
            }
            for pid, w in params.items()
        },
    }


def _random_factors(rng, num_vars: int, arities) -> tuple[list, dict]:
    """One factor of each listed arity over distinct random variables, each
    with its own nonnegative CP parameters."""
    factors, params = [], {}
    for a, n in enumerate(arities):
        pid = f"f{a}"
        factors.append((rng.choice(num_vars, size=int(n), replace=False), pid))
        params[pid] = rng.uniform(*WEIGHTS, size=(int(n), CARD, RANK))
    return factors, params


def gen_loopy_lowrank(rng, num_vars=2000, num_factors=3000, max_arity=4) -> dict:
    arities = rng.integers(2, max_arity + 1, size=num_factors)
    unary = rng.uniform(0.1, 1.0, size=(num_vars, CARD))
    return {"graph": _lowrank_doc(unary, *_random_factors(rng, num_vars, arities))}


def gen_hub_degree(rng, degrees=HUB_DEGREES) -> dict:
    """Per degree D: two hubs (variables 0 and 1), each in D factors
    (hub, leaf, leaf) over a pool of D leaves."""
    docs = {}
    for deg in degrees:
        unary = rng.uniform(0.1, 1.0, size=(2 + deg, CARD))
        factors, params = [], {}
        for hub in (0, 1):
            for _ in range(deg):
                pid = f"f{len(factors)}"
                leaves = 2 + rng.choice(deg, size=2, replace=False)
                factors.append(((hub, *leaves), pid))
                params[pid] = rng.uniform(*WEIGHTS, size=(3, CARD, RANK))
        docs[f"D{deg:04d}"] = _lowrank_doc(unary, factors, params)
    return docs


def gen_arity_crossover(rng, arities=CROSSOVER_ARITIES, num_vars=200, per_arity=40) -> dict:
    docs = {}
    for n in arities:
        unary = rng.uniform(0.1, 1.0, size=(num_vars, CARD))
        docs[f"n{n}"] = _lowrank_doc(unary, *_random_factors(rng, num_vars, [n] * per_arity))
    return docs


def gen_train_step(rng, graphs=2, num_vars=500, num_factors=600, max_arity=6, types=4) -> dict:
    """Graphs whose factors draw their parameters from a pool of `types`
    CP factors per arity, so the neural layer's slots are shared."""
    pool = {
        f"t{n}_{k}": rng.uniform(*WEIGHTS, size=(n, CARD, RANK))
        for n in range(2, max_arity + 1)
        for k in range(types)
    }
    docs = {}
    for gi in range(graphs):
        unary = rng.uniform(0.1, 1.0, size=(num_vars, CARD))
        factors = []
        for n in rng.integers(2, max_arity + 1, size=num_factors):
            pid = f"t{n}_{rng.integers(types)}"
            factors.append((rng.choice(num_vars, size=int(n), replace=False), pid))
        used = {pid for _, pid in factors}
        docs[f"g{gi}"] = _lowrank_doc(unary, factors, {k: w for k, w in pool.items() if k in used})
    return docs


GENERATORS = {
    "loopy-lowrank": gen_loopy_lowrank,
    "hub-degree": gen_hub_degree,
    "arity-crossover": gen_arity_crossover,
    "train-step": gen_train_step,
}


def write_inputs(workload: str, seed: int, split: str, out_dir: Path, **sizes) -> list[Path]:
    """Generate one workload's graphs and write them as `<name>.json`."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for old in out_dir.glob("*.json"):
        old.unlink()
    docs = GENERATORS[workload](rng_for(workload, seed, split), **sizes)
    paths = []
    for name, doc in docs.items():
        path = out_dir / f"{name}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        paths.append(path)
    return paths


def input_paths(out_dir: Path) -> list[Path]:
    """The files `write_inputs` wrote, in operation order."""
    return sorted(out_dir.glob("*.json"))


# ---------------------------------------------------------------- operations


@dataclass
class Op:
    """One program call: a solve or a train step.

    `run` returns the call's output; `msgs` counts the messages an output
    took. A solve also carries its graph's edge count and `sweep_flops`.
    """

    label: str
    run: Callable[[], object]
    msgs: Callable[[object], int]
    edges: int = 0
    flops: tuple[int, int] = (0, 0)


@dataclass
class Outcome:
    """What one operation returned, without references to its inputs."""

    label: str
    seconds: float
    output: object = None
    msgs: int = 0
    edges: int = 0
    flops: tuple[int, int] = (0, 0)
    error: str | None = None  # set when the op raised, did not converge or failed a check
    check_failed: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class State:
    """What set-up loaded: the graphs and, on train-step, the model."""

    graphs: dict
    model: dict = field(default_factory=dict)


def lbp_options():
    from lrbp.engine import LBPOptions

    return LBPOptions(tol=1e-8, max_iters=200)


def num_edges(g) -> int:
    return sum(len(b.scope) for b in g.factors)


def sweep_flops(g) -> tuple[int, int]:
    """Computed cost of one factor-to-variable sweep of `g`, split into
    (low-rank, dense) factors: n*d*R per low-rank factor, as in the paper, and
    n*d**n per dense marginalization, n of them per dense factor."""
    from lrbp.graph import DensePayload, factor_cp

    lowrank = dense = 0
    for a, b in enumerate(g.factors):
        n = len(b.scope)
        if isinstance(b.payload, DensePayload):
            dense += n * n * g.cardinality**n
        else:
            lowrank += n * g.cardinality * factor_cp(g, a).rank
    return lowrank, dense


def dense_copy(g):
    """The same graph with every low-rank factor expanded into a dense table."""
    from lrbp.graph import DensePayload, FactorBinding, build_graph, factor_table

    bindings = [
        FactorBinding(b.scope, DensePayload(factor_table(g, a)), b.slot_ids)
        for a, b in enumerate(g.factors)
    ]
    return build_graph(g.num_vars, g.cardinality, bindings, unary=g.unary)


def setup(workload: str, paths: list[Path], seed: int, split: str) -> State:
    """Load the workload's files; on train-step also initialise the model.

    This is the set-up a caller pays before the first operation (setup_s).
    """
    from lrbp.graph import load_graph

    graphs = {p.stem: load_graph(p) for p in paths}
    if workload != "train-step":
        return State(graphs)
    from lrbp.neural import HiddenStates, graph_slot_ids, init_layer_params

    slot_ids = list(dict.fromkeys(s for g in graphs.values() for s in graph_slot_ids(g)))
    params = init_layer_params(slot_ids, TRAIN["d_h"], TRAIN["rank"], seed=seed)
    rng = rng_for(workload, seed, split, stream=1)
    batch = [
        (g, HiddenStates(rng.standard_normal((g.num_vars, TRAIN["d_h"]))), rng.standard_normal())
        for g in graphs.values()
    ]
    return State(graphs, {"params": params, "opt": None, "batch": batch})


def prepare(workload: str, state: State) -> None:
    """Untimed work before the passes: the dense copies arity-crossover solves."""
    if workload == "arity-crossover":
        state.model["dense"] = {name: dense_copy(g) for name, g in state.graphs.items()}


def pass_ops(workload: str, state: State) -> list[Op]:
    """The operations of one pass over the workload, in order.

    The program's functions are looked up when an operation runs, so that
    a tracer installed after this call still sees them.
    """
    from lrbp import engine, neural

    def solve(label, g):
        edges = num_edges(g)
        return Op(label, lambda: engine.run_lbp(g, lbp_options()),
                  lambda out: 2 * edges * out.iterations_used, edges, sweep_flops(g))

    if workload == "train-step":
        m = state.model
        msgs = TRAIN["layers"] * sum(num_edges(g) for g, _, _ in m["batch"])

        def step():
            m["params"], m["opt"], loss = neural.train_step(
                m["batch"], m["params"], m["opt"], lr=TRAIN["lr"], layers=TRAIN["layers"]
            )
            return loss

        return [Op("step", step, lambda out: msgs)]
    ops = []
    for name, g in state.graphs.items():
        if workload == "arity-crossover":
            dense = state.model["dense"][name]
            ops += [solve(f"{name}/lowrank", g), solve(f"{name}/dense", dense)]
        else:
            ops.append(solve(name, g))
    return ops


# -------------------------------------------------------------------- checks


def belief_problem(beliefs: np.ndarray) -> str | None:
    if not np.all(np.isfinite(beliefs)):
        return "non-finite beliefs"
    worst = float(np.max(np.abs(beliefs.sum(axis=1) - 1.0)))
    if worst > SUM_TOL:
        return f"belief rows sum to 1 +- {worst:.3e}"
    return None


def check_outcome(workload: str, out: Outcome, reference: dict) -> None:
    """Mark a finished operation failed when its output is wrong."""
    if out.error is not None:
        return
    if workload == "train-step":
        if not math.isfinite(out.output):
            out.error, out.check_failed = f"non-finite loss {out.output}", True
        return
    if not out.output.converged:
        out.error = f"not converged in {out.output.iterations_used} iterations"
        return
    problem = belief_problem(out.output.beliefs)
    ref = reference.get(out.label)
    if problem is None and ref is not None:
        gap = float(np.max(np.abs(out.output.beliefs - ref.beliefs)))
        if gap > DENSE_TOL:
            problem = f"beliefs differ from the dense oracle by {gap:.3e}"
    if problem is not None:
        out.error, out.check_failed = problem, True


def check_pairs(outcomes: list[Outcome]) -> None:
    """arity-crossover: each low-rank solve and its dense copy must take the
    same iterations and agree in their beliefs."""
    by_label = {o.label: o for o in outcomes}
    for low in outcomes:
        if not low.label.endswith("/lowrank"):
            continue
        dense = by_label[low.label.replace("/lowrank", "/dense")]
        if low.error or dense.error:
            continue
        a, b = low.output, dense.output
        if a.iterations_used != b.iterations_used:
            problem = f"iterations {a.iterations_used} (low-rank) != {b.iterations_used} (dense)"
        else:
            gap = float(np.max(np.abs(a.beliefs - b.beliefs)))
            problem = f"low-rank and dense beliefs differ by {gap:.3e}" if gap > DENSE_TOL else None
        if problem is not None:
            for o in (low, dense):
                o.error, o.check_failed = problem, True


def references(workload: str, state: State) -> dict:
    """Oracle outputs by op label: loopy-lowrank is solved again on its
    dense-payload copy."""
    from lrbp.engine import run_lbp

    if workload != "loopy-lowrank":
        return {}
    return {name: run_lbp(dense_copy(g), lbp_options()) for name, g in state.graphs.items()}


def tree_problem(seed: int) -> str | None:
    """LBP on a seeded small tree of low-rank factors must equal the exact
    marginals; returns a description of the mismatch, or None."""
    from lrbp.engine import exact_marginals, run_lbp
    from lrbp.graph import FactorBinding, LowRankPayload, build_graph
    from lrbp.tensors import CPFactor

    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(len(WORKLOADS),)))
    num_vars, bindings, params = 1, [], {}
    while num_vars < 8:  # grow a tree: each factor adds 1-2 new variables
        fresh = int(rng.integers(1, 3))
        scope = (int(rng.integers(num_vars)), *range(num_vars, num_vars + fresh))
        pid = f"f{len(bindings)}"
        params[pid] = CPFactor(len(scope), CARD, 3, tuple(rng.uniform(0.0, 1.0, size=(len(scope), CARD, 3))))
        bindings.append(FactorBinding(scope, LowRankPayload(pid)))
        num_vars += fresh
    unary = rng.uniform(0.1, 1.0, size=(num_vars, CARD))
    g = build_graph(num_vars, CARD, bindings, unary=unary, params=params)
    got = run_lbp(g, lbp_options())
    gap = float(np.max(np.abs(got.beliefs - exact_marginals(g).beliefs)))
    return f"tree beliefs differ from exact marginals by {gap:.3e}" if gap > EXACT_TOL else None


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--split", choices=SPLITS, default="tune")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    write_inputs(args.workload, args.seed, args.split, args.out)


if __name__ == "__main__":
    main()
