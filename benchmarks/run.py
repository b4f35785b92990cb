"""The lrbp benchmark: one workload, one closed-loop caller, one process.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
                              [--split tune|held-out]

Run from the root of a checkout. The workload's graphs are generated from
the seed into `.bench_work/` and the program only reads them back through
`lrbp.graph.load_graph`. Each operation (a solve or a train step) starts
after the previous one returned; nothing runs in parallel.

With `--trace 0` the run repeats rounds of SETUP_REPS set-ups and one pass
over the workload's operations for S seconds and reports the end-to-end
metrics. With `--trace 1` it alternates untraced and traced rounds (one
set-up plus one pass each) for S seconds and reports the per-layer metrics of
the traced rounds; the gap between the two kinds of round is the tracing
overhead.
Outputs are checked outside the timed regions in both modes. Human-readable
lines come first; the last line of standard output is one JSON object.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
# name: (unit, better, bound)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "solve_s": ("s", "lower", 0.25),
    "msgs_per_s": ("1/s", "higher", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.1),
}
# Set-ups timed per untraced round. A set-up is short next to a pass, so
# several of them give setup_s as many samples as the run has time for.
SETUP_REPS = 4
# Stated with every result: where the timings come from and how far to trust them.
HOST_NOTE = ("timings come from a shared {nproc}-CPU sandbox whose speed moves with other tenants' "
             "load, by up to 1.7x over seconds to minutes; steadiness comes from repetition, so "
             "compare a change with its parent in runs made close together")
ARITY_KINDS = ("lowrank", "dense")
# The traced functions some workload calls in set-up or in a pass. The others
# are traced too, but would report zero on every run.
LAYER_FUNCTIONS = (
    "graph.load_graph", "graph.build_graph", "graph.factor_cp", "graph.factor_table",
    "tensors.marginalize_product",
    "engine.init_messages", "engine.var_to_factor_update", "engine.factor_to_var_dense",
    "engine.beliefs_from_messages", "engine.run_lbp",
    "neural.graph_slot_ids", "neural.init_layer_params", "neural.factor_slots",
    "neural.named_arrays", "neural.replace_arrays", "neural.lrbp_forward", "neural.lrbp_backward",
    "neural.forward_stack", "neural.backward_stack", "neural.adam_init", "neural.adam_step",
    "neural.train_step",
)
PER_LAYER = {
    **{f"{q}.{k}": (u, "lower") for q in LAYER_FUNCTIONS for k, u in (("calls", "count"), ("self_s", "s"))},
    "engine.msgs": ("count", "lower"),
    "engine.iters": ("count", "lower"),
    "engine.f2v_lowrank.flops": ("count", "lower"),
    "engine.f2v_lowrank.flops_per_s": ("1/s", "higher"),
    "tensors.marginalize_product.flops": ("count", "lower"),
    "tensors.marginalize_product.flops_per_s": ("1/s", "higher"),
    **{
        f"engine.f2v_us_per_msg.{kind}.n{n}": ("us", "lower")
        for kind in ARITY_KINDS
        for n in wl.CROSSOVER_ARITIES
    },
    "neural.backward_over_forward": ("ratio", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def import_program() -> None:
    """Put the checkout's `src` first on the path and import lrbp from it."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import lrbp.engine
        import lrbp.neural  # noqa: F401
    except ImportError as exc:
        sys.exit(f"cannot import lrbp from {src}: {exc}")
    if src not in Path(lrbp.engine.__file__).resolve().parents:
        sys.exit(f"lrbp was imported from {lrbp.engine.__file__}, not from {src}")


# --------------------------------------------------------------- environment


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS library numpy loaded, if it is one."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln}
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "note": HOST_NOTE.format(nproc=os.cpu_count()),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "workload": args.workload,
        "seed": args.seed,
        "split": args.split,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ------------------------------------------------------------------ running


def generate(workload: str, seed: int, split: str) -> list[Path]:
    """Write the workload's inputs in a child process and return their paths."""
    out = WORK / f"inputs-{workload}"
    subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
         "--seed", str(seed), "--split", split, "--out", str(out)],
        check=True,
        timeout=120,
    )
    return wl.input_paths(out)


def run_op(op: wl.Op) -> wl.Outcome:
    t0 = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # a raising operation is a failed operation
        return wl.Outcome(op.label, time.perf_counter() - t0, error=f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - t0
    return wl.Outcome(op.label, seconds, out, op.msgs(out), op.edges, op.flops)


def run_pass(ops: list[wl.Op], span=None) -> list[wl.Outcome]:
    outs = []
    for op in ops:
        with span(f"op:{op.label}") if span else nullcontext():
            outs.append(run_op(op))
    return outs


def same_output(a, b) -> bool:
    if isinstance(a, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    return a.iterations_used == b.iterations_used and np.array_equal(a.beliefs, b.beliefs)


def trained(state: wl.State) -> dict | None:
    if "params" not in state.model:
        return None
    from lrbp.neural import named_arrays

    return named_arrays(state.model["params"])


@dataclass
class Round:
    setup_s: list[float]  # one time per set-up
    outcomes: list[wl.Outcome]
    root: int | None  # top span of a traced round

    @property
    def pass_s(self) -> float:
        return sum(o.seconds for o in self.outcomes)


def run_rounds(workload: str, paths: list[Path], seed: int, split: str, seconds: float,
               tracer: tracing.Tracer | None = None, setups: int = 1) -> list[Round]:
    """Rounds of `setups` set-ups and one pass, for `seconds` and at least one.

    Set-up is timed in every round, so that its samples spread over the run
    like those of the operations; the pass uses the last set-up's state.
    With a tracer, every second round is traced. Each round must return
    bitwise the outputs (and on train-step the trained parameters) of the
    first. Only one set-up's state is alive at a time, so the peak resident
    size is that of one set-up and one pass.
    """
    rounds: list[Round] = []
    start = time.perf_counter()
    while len(rounds) < (2 if tracer else 1) or time.perf_counter() - start < seconds:
        traced = tracer is not None and len(rounds) % 2 == 1
        installed = tracer.installed if traced else nullcontext
        setup_s = []
        with tracer.span("round") if traced else nullcontext() as root:
            for _ in range(setups):
                state = None
                gc.collect()
                t0 = time.perf_counter()
                with installed():
                    state = wl.setup(workload, paths, seed, split)
                setup_s.append(time.perf_counter() - t0)
            wl.prepare(workload, state)
            ops = wl.pass_ops(workload, state)
            gc.collect()
            with installed():
                outs = run_pass(ops, tracer.span if traced else None)
        if not rounds:
            first_outs, first_params = outs, trained(state)
        for out, ref in zip(outs, first_outs):
            if out.ok and ref.ok and not same_output(out.output, ref.output):
                out.error, out.check_failed = "output differs from the first round", True
        params = trained(state)
        if params is not None and any(not np.array_equal(params[k], first_params[k]) for k in params):
            outs[0].error, outs[0].check_failed = "trained parameters differ from the first round", True
        del state, ops
        rounds.append(Round(setup_s, outs, root))
    return rounds


def check_rounds(workload: str, paths: list[Path], seed: int, split: str, rounds: list[Round]) -> None:
    """Check every outcome against the workload's output checks."""
    reference = wl.references(workload, wl.setup(workload, paths, seed, split))
    for r in rounds:
        for out in r.outcomes:
            wl.check_outcome(workload, out, reference)
        if workload == "arity-crossover":
            wl.check_pairs(r.outcomes)


def summary(samples: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    out = {"median": statistics.median(samples), "n": len(samples)}
    n = len(samples)
    if n >= 20:
        pct = math.floor(100 * (n - 10) / n)
        out[f"p{pct}"] = float(np.percentile(samples, pct))
    return out


def measure(workload: str, paths: list[Path], seed: int, split: str, seconds: float) -> dict:
    """Untraced run: end-to-end metrics."""
    rounds = run_rounds(workload, paths, seed, split, seconds, setups=SETUP_REPS)
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check_rounds(workload, paths, seed, split, rounds)
    # Each operation's median over the rounds: a slow spell of the host then
    # spoils single operations rather than whole passes.
    first = rounds[0].outcomes
    op_times = [[r.outcomes[i].seconds for r in rounds] for i in range(len(first))]
    op_median = [statistics.median(t) for t in op_times]
    ok = [i for i in range(len(first)) if all(r.outcomes[i].ok for r in rounds)]
    samples = {"setup_s": [t for r in rounds for t in r.setup_s],
               "pass_s": [r.pass_s for r in rounds]}
    samples.update({f"op:{o.label}": t for o, t in zip(first, op_times)})
    ok_s = sum(op_median[i] for i in ok)
    metrics = {
        "setup_s": statistics.median(samples["setup_s"]),
        # one pass over the workload's operations (on train-step, one step)
        "solve_s": sum(op_median),
        "msgs_per_s": sum(first[i].msgs for i in ok) / ok_s if ok_s else 0.0,
        "peak_rss_mb": peak_mib,
    }
    if workload == "train-step":
        info = {"step_s": (metrics["solve_s"], "s")}
    else:
        info = {"iters": (sum(first[i].output.iterations_used for i in ok), "count")}
    return {"metrics": metrics, "samples": samples, "info": info,
            "outcomes": [o for r in rounds for o in r.outcomes]}


def trace_run(workload: str, paths: list[Path], seed: int, split: str, seconds: float) -> dict:
    """Alternating untraced and traced rounds: per-layer metrics."""
    tracer = tracing.Tracer()
    rounds = run_rounds(workload, paths, seed, split, seconds, tracer)
    check_rounds(workload, paths, seed, split, rounds)
    traced, untraced = rounds[1::2], rounds[0::2]
    arr = tracer.arrays()
    self_s = tracing.self_times(arr["parent"], arr["start"], arr["end"])
    per_round = [layer_metrics(arr, self_s, tracer.names, r.root, r.outcomes) for r in traced]
    metrics = {name: statistics.median(r[name] for r in per_round) for name in per_round[0]}
    overhead = (statistics.median(r.pass_s + sum(r.setup_s) for r in traced)
                / statistics.median(r.pass_s + sum(r.setup_s) for r in untraced))
    metrics["trace.overhead_frac"] = overhead - 1.0
    samples = {
        "untraced_round_s": [r.pass_s + sum(r.setup_s) for r in untraced],
        "traced_round_s": [r.pass_s + sum(r.setup_s) for r in traced],
    }
    outcomes = [o for r in rounds for o in r.outcomes]
    return {"metrics": metrics, "samples": samples, "info": {}, "outcomes": outcomes, "tracer": tracer}


def layer_metrics(arr: dict, self_s: np.ndarray, names: list[str], root: int, outs) -> dict:
    """Per-layer metrics of one traced round, whose top span is `root`."""
    fn, parent, dur = arr["fn"], arr["parent"], arr["end"] - arr["start"]
    later_tops = np.flatnonzero(parent[root + 1:] < 0)
    hi = root + 1 + int(later_tops[0]) if later_tops.size else fn.size
    fid = {name: i for i, name in enumerate(names)}
    calls = np.bincount(fn[root:hi], minlength=len(names))
    selfs = np.bincount(fn[root:hi], weights=self_s[root:hi], minlength=len(names))
    out = {}
    for q in LAYER_FUNCTIONS:
        out[f"{q}.calls"] = int(calls[fid[q]])
        out[f"{q}.self_s"] = float(selfs[fid[q]])

    # The round's direct children are set-up calls and "op:<label>" spans;
    # an op's spans run up to the next direct child.
    kids = root + 1 + np.flatnonzero(parent[root + 1:hi] == root)
    op_range = {
        names[fn[k]][3:]: (k, e)
        for k, e in zip(kids, np.append(kids[1:], hi))
        if names[fn[k]].startswith("op:")
    }
    side = [fid[f"engine.{f}"] for f in ("var_to_factor_update", "init_messages", "beliefs_from_messages")]
    msgs = iters = lowrank_flops = dense_flops = 0
    lowrank_self = 0.0
    per_msg = {name: 0.0 for name in PER_LAYER if ".f2v_us_per_msg." in name}
    for o in outs:
        if not o.ok or not o.edges:
            continue
        it = o.output.iterations_used
        low, dense = o.flops
        msgs += o.msgs
        iters += it
        lowrank_flops += it * low
        dense_flops += it * dense
        lo, hi_op = op_range[o.label]
        solves = lo + np.flatnonzero(fn[lo:hi_op] == fid["engine.run_lbp"])
        if low:
            lowrank_self += float(self_s[solves].sum())
        if "/" in o.label:  # arity-crossover: n<k>/<kind>
            # f2v time: the solve less its v2f half, init and belief spans
            n, kind = o.label.split("/")
            inside = np.isin(fn[lo:hi_op], side) & np.isin(parent[lo:hi_op], solves)
            f2v = float(dur[solves].sum() - dur[lo:hi_op][inside].sum())
            per_msg[f"engine.f2v_us_per_msg.{kind}.{n}"] = 1e6 * f2v / (it * o.edges)
    marg = selfs[fid["tensors.marginalize_product"]]
    fwd = float(dur[root:hi][fn[root:hi] == fid["neural.lrbp_forward"]].sum())
    bwd = float(dur[root:hi][fn[root:hi] == fid["neural.lrbp_backward"]].sum())
    out.update(per_msg)
    out.update({
        "engine.msgs": msgs,
        "engine.iters": iters,
        "engine.f2v_lowrank.flops": lowrank_flops,
        "engine.f2v_lowrank.flops_per_s": lowrank_flops / lowrank_self if lowrank_self else 0.0,
        "tensors.marginalize_product.flops": dense_flops,
        "tensors.marginalize_product.flops_per_s": dense_flops / marg if marg else 0.0,
        "neural.backward_over_forward": bwd / fwd if fwd else 0.0,
    })
    return out


# ------------------------------------------------------------------- output


def report(args, env: dict, result: dict, tree: str | None) -> dict:
    outcomes = result["outcomes"]
    failures: dict[str, int] = {}
    for o in outcomes:
        if not o.ok:
            key = f"{o.label}: {o.error}"
            failures[key] = failures.get(key, 0) + 1
    attempted, failed = len(outcomes), sum(not o.ok for o in outcomes)
    correct = tree is None and not any(o.check_failed for o in outcomes)
    if tree is not None:
        attempted, failed = attempted + 1, failed + 1
        failures[f"check:tree: {tree}"] = 1
    spec = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": result["metrics"][name], "unit": spec[name][0]} for name in spec}

    print(f"# lrbp benchmark  workload={args.workload} seed={args.seed} split={args.split} "
          f"trace={args.trace}")
    print("# env " + json.dumps(env))
    for name, series in result["samples"].items():
        print(f"# samples {name}: " + json.dumps({k: round(v, 6) for k, v in summary(series).items()}))
    for name, (value, unit) in result["info"].items():
        print(f"# {name} {value:.6g} {unit}")
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    print(f"# attempted {attempted}, failed {failed}, outputs correct: {correct}")
    for key, count in failures.items():
        print(f"# failed x{count}: {key}")

    WORK.mkdir(parents=True, exist_ok=True)
    record = {"env": env, "metrics": metrics, "info": result["info"], "samples": result["samples"],
              "failures": failures,
              "attempted": attempted, "failed": failed, "correct": correct}
    with open(WORK / f"result-{args.workload}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--split", choices=wl.SPLITS, default="tune",
                    help="held-out draws inputs from a stream disjoint from tune's")
    args = ap.parse_args(argv)
    import_program()
    env = environment(args)
    paths = generate(args.workload, args.seed, args.split)
    run = trace_run if args.trace else measure
    result = run(args.workload, paths, args.seed, args.split, args.seconds)
    if args.trace:
        result["tracer"].save(WORK / f"spans-{args.workload}.npz")
    tree = wl.tree_problem(args.seed)
    print(json.dumps(report(args, env, result, tree)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
