"""Sum-product loopy belief propagation with a dense oracle path and a
low-rank fast path.

Updates run on a synchronous flooding schedule: one iteration computes all
variable-to-factor messages from the previous factor-to-variable buffer,
then all factor-to-variable messages from the fresh variable-to-factor
buffer. Every message is L1-normalized as it is produced.

`run_lbp` keeps each message family in one (E, d) array; edge e = offs[a] + k
is slot k of factor a. Low-rank factors are grouped by (arity n, rank R): a
group projects its rows through its (F, n, d, R) weights, takes the
leave-one-out Hadamard product over the slot axis and maps back, O(n * d * R)
per factor. Dense factors are marginalized one at a time, O(n * d**n) per
message. Variables are bucketed by degree D: a bucket takes the leave-one-out
product of its (V, D, d) rows times the unary, O(D * d) per variable.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .graph import DensePayload, FactorGraph, factor_cp, factor_table, joint_table
from .tensors import leave_one_out, marginalize_product

NEGATIVE_TOL = -1e-12


class ZeroMessageError(Exception):
    """A message or belief normalized to zero total mass."""


class SignViolationWarning(UserWarning):
    """A low-rank update produced negative entries (mixed-sign weights)."""


@dataclass
class MessageState:
    """Message buffers keyed (var, factor_idx) and (factor_idx, var)."""

    var_to_factor: dict[tuple[int, int], np.ndarray]
    factor_to_var: dict[tuple[int, int], np.ndarray]


@dataclass
class BeliefSet:
    beliefs: np.ndarray  # (num_vars, d), rows sum to 1
    converged: bool
    iterations_used: int
    final_delta: float
    trace: tuple[tuple[int, float], ...] | None = None


@dataclass
class LBPOptions:
    max_iters: int = 200
    tol: float = 1e-8
    damping: float = 0.0
    collect_trace: bool = False


def _normalize(raw: np.ndarray, what: str, *keys) -> np.ndarray:
    """`raw` over its sums along the last axis. The first zero sum raises,
    naming its row by `what.format(*(k[row] for k in keys))`."""
    total = raw.sum(axis=-1, keepdims=True)
    zero = np.flatnonzero(total == 0.0)
    if zero.size:
        what = what.format(*(k[zero[0]] for k in keys))
        raise ZeroMessageError(f"{what} normalized to zero mass")
    return raw / total


def init_messages(g: FactorGraph) -> MessageState:
    """Uniform 1/d start for both message families."""
    uniform = np.full(g.cardinality, 1.0 / g.cardinality)
    edges = [(i, a) for a, binding in enumerate(g.factors) for i in binding.scope]
    return MessageState({(i, a): uniform.copy() for i, a in edges},
                        {(a, i): uniform.copy() for i, a in edges})


def var_to_factor_update(state: MessageState, g: FactorGraph, i: int, a: int) -> np.ndarray:
    """Product of incoming factor messages excluding `a`, times the unary.

    Normalized; with no other neighbours this is the normalized unary
    (uniform when the unary is absent).
    """
    if a not in g.var_adjacency[i]:
        raise ValueError(f"factor {a} is not adjacent to variable {i}")
    prod = g.unary[i].copy() if g.unary is not None else np.ones(g.cardinality)
    for c in g.var_adjacency[i]:
        if c != a:
            prod = prod * state.factor_to_var[(c, i)]
    return _normalize(prod, f"message {i}->{a}")


def factor_to_var_dense(
    state: MessageState, g: FactorGraph, a: int, i: int, cap: int | None = None
) -> np.ndarray:
    """Factor-to-variable update by dense marginalization (the oracle path).

    Low-rank payloads are expanded first, subject to the capacity cap.
    """
    binding = g.factors[a]
    pos = binding.scope.index(i)
    incoming = [
        None if j == i else state.var_to_factor[(j, a)] for j in binding.scope
    ]
    vec = marginalize_product(factor_table(g, a, cap=cap), incoming, keep=pos)
    return _normalize(vec, f"message {a}->{i}")


def _lowrank_messages(w: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Unnormalized messages of F low-rank factors of one shape: message k
    of factor f is W_k @ (Hadamard product over l != k of W_l^T m_l), for
    (F, n, d, R) weights w and (F, n, d) incoming messages m."""
    gamma = np.einsum("fndr,fnd->fnr", w, m)
    return np.einsum("fndr,fnr->fnd", w, leave_one_out(gamma, axis=1))


def factor_to_var_lowrank(state: MessageState, g: FactorGraph, a: int, i: int) -> np.ndarray:
    """Low-rank factor-to-variable update, by the kernel `run_lbp` batches:
    O(n_a * d * R). Warns when the message has negative entries."""
    cp = factor_cp(g, a)
    scope = g.factors[a].scope
    m = np.array([state.var_to_factor[(j, a)] for j in scope])
    vec = _lowrank_messages(np.array(cp.weights)[None], m[None])[0, scope.index(i)]
    if np.any(vec < NEGATIVE_TOL):
        warnings.warn(f"low-rank message {a}->{i} has negative entries (min {vec.min():.3e}); "
                      "mixed-sign weights void the probabilistic guarantees",
                      SignViolationWarning, stacklevel=2)
    return _normalize(vec, f"message {a}->{i}")


def beliefs_from_messages(g: FactorGraph, state: MessageState) -> np.ndarray:
    """Per-variable beliefs: unary times all incoming factor messages."""
    out = g.unary.copy() if g.unary is not None else np.ones((g.num_vars, g.cardinality))
    for i in range(g.num_vars):
        for a in g.var_adjacency[i]:
            out[i] = out[i] * state.factor_to_var[(a, i)]
    return _normalize(out, "belief of variable {}", range(g.num_vars))


def _layout(g: FactorGraph):
    """Edge arrays of `g`: the variable, factor and low-rank flag of each edge;
    ((F, n) edges, (F, n, d, R) weights) per low-rank group; (first edge,
    table) per dense factor; ((V,) variables, (V, D) edges) per degree D."""
    arity = np.array([len(b.scope) for b in g.factors], dtype=np.intp)
    offs = np.cumsum(arity) - arity
    var = np.array([v for b in g.factors for v in b.scope], dtype=np.intp)
    lowrank = np.repeat(np.array([not isinstance(b.payload, DensePayload) for b in g.factors],
                                 dtype=bool), arity)
    members: dict[tuple[int, int], tuple[list, list]] = {}
    dense = []
    for a, b in enumerate(g.factors):
        if isinstance(b.payload, DensePayload):
            dense.append((offs[a], b.payload.tensor))
        else:
            cp = factor_cp(g, a)
            ids, ws = members.setdefault((cp.arity, cp.rank), ([], []))
            ids.append(a)
            ws.extend(cp.weights)
    groups = [(offs[ids, None] + np.arange(n), np.concatenate(ws).reshape(len(ids), n, -1, r))
              for (n, r), (ids, ws) in members.items()]
    # stable, so each variable's edges stay in factor order, as in g.var_adjacency
    order = np.argsort(var, kind="stable")
    deg = np.bincount(var, minlength=g.num_vars)
    first = np.cumsum(deg) - deg
    buckets = []
    for size in np.unique(deg):
        vs = np.flatnonzero(deg == size)
        buckets.append((vs, order[first[vs, None] + np.arange(size)]))
    return var, np.repeat(np.arange(arity.size), arity), lowrank, groups, dense, buckets


def run_lbp(
    g: FactorGraph,
    opts: LBPOptions | None = None,
    init: MessageState | None = None,
) -> BeliefSet:
    """Run synchronous-flooding sum-product LBP until the max-norm message
    change drops below opts.tol or opts.max_iters is reached.

    Low-rank payloads always take the low-rank path. Optional damping blends
    each new message with its previous value (damping 0 reproduces the
    undamped update bit for bit). `init` overrides the uniform start.

    A zero-mass message raises ZeroMessageError, naming the first in edge
    order; a non-finite one raises FloatingPointError. Low-rank messages with
    negative entries (mixed-sign weights) give one SignViolationWarning per
    run, with their count, the most negative entry and the first of them.
    """
    opts = opts or LBPOptions()
    if not opts.tol > 0:
        raise ValueError(f"tol must be positive, got {opts.tol}")
    if not 0.0 <= opts.damping < 1.0:
        raise ValueError(f"damping must be in [0, 1), got {opts.damping}")

    var, fac, lowrank, groups, dense, buckets = _layout(g)
    var, fac, d = var.tolist(), fac.tolist(), g.cardinality
    unary = g.unary if g.unary is not None else np.ones((g.num_vars, d))
    if init is None:
        v2f = f2v = np.full((len(var), d), 1.0 / d)  # never written in place
    else:
        v2f = np.array([init.var_to_factor[k] for k in zip(var, fac)], dtype=float).reshape(-1, d)
        f2v = np.array([init.factor_to_var[k] for k in zip(fac, var)], dtype=float).reshape(-1, d)
    trace: list[tuple[int, float]] = []
    delta = math.inf
    iteration = 0
    negative = []  # per iteration with any: (first edge, count, most negative entry)

    with np.errstate(over="ignore", invalid="ignore"):
        for iteration in range(1, opts.max_iters + 1):
            raw = np.empty_like(f2v)
            for vs, edges in buckets:
                raw[edges] = leave_one_out(f2v[edges], axis=1) * unary[vs, None]
            new_v2f = _normalize(raw, "message {}->{}", var, fac)
            if opts.damping:
                new_v2f = (1.0 - opts.damping) * new_v2f + opts.damping * v2f
            raw = np.empty_like(new_v2f)
            for edges, w in groups:
                raw[edges] = _lowrank_messages(w, new_v2f[edges])
            for e0, table in dense:
                rows = list(new_v2f[e0:e0 + table.order])
                for k in range(table.order):
                    raw[e0 + k] = marginalize_product(table, rows, keep=k)
            bad = np.flatnonzero(lowrank & (raw < NEGATIVE_TOL).any(axis=1))
            if bad.size:
                negative.append((bad[0], bad.size, raw[bad].min()))
            new_f2v = _normalize(raw, "message {}->{}", fac, var)
            if opts.damping:
                new_f2v = (1.0 - opts.damping) * new_f2v + opts.damping * f2v
            delta = float(max(np.abs(new_v2f - v2f).max(initial=0.0),
                              np.abs(new_f2v - f2v).max(initial=0.0)))
            for msgs, keys in ((new_v2f, (var, fac)), (new_f2v, (fac, var))):
                bad = np.flatnonzero(~np.isfinite(msgs).all(axis=1))
                if bad.size:
                    key = tuple(k[bad[0]] for k in keys)
                    raise FloatingPointError(f"non-finite message {key} at iteration {iteration}")
            v2f, f2v = new_v2f, new_f2v
            if opts.collect_trace:
                trace.append((iteration, delta))
            if delta < opts.tol:
                break
        beliefs = unary.copy()
        for vs, edges in buckets:
            beliefs[vs] *= f2v[edges].prod(axis=1)
        beliefs = _normalize(beliefs, "belief of variable {}", range(g.num_vars))

    if negative:
        e = negative[0][0]
        warnings.warn(f"{sum(n[1] for n in negative)} low-rank messages had negative entries "
                      f"(min {min(n[2] for n in negative):.3e}, first {fac[e]}->{var[e]}); "
                      "mixed-sign weights void the probabilistic guarantees",
                      SignViolationWarning, stacklevel=2)
    return BeliefSet(
        beliefs=beliefs,
        converged=delta < opts.tol,
        iterations_used=iteration,
        final_delta=delta,
        trace=tuple(trace) if opts.collect_trace else None,
    )


def exact_marginals(g: FactorGraph, cap: int | None = None) -> BeliefSet:
    """Exact per-variable marginals by summing the joint table.

    Ground truth for tree tests; subject to the capacity cap.
    """
    joint, z = joint_table(g, cap=cap)
    arr = joint.array
    out = np.empty((g.num_vars, g.cardinality))
    for i in range(g.num_vars):
        axes = tuple(ax for ax in range(g.num_vars) if ax != i)
        out[i] = arr.sum(axis=axes) / z if axes else arr / z
    return BeliefSet(beliefs=out, converged=True, iterations_used=0, final_delta=0.0)
