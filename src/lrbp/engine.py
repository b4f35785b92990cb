"""Sum-product loopy belief propagation over dense and low-rank factors,
and exact marginals by enumeration.

Updates run on a synchronous flooding schedule: one iteration computes all
variable-to-factor messages from the previous factor-to-variable buffer,
then all factor-to-variable messages from the fresh variable-to-factor
buffer. Every message is L1-normalized as it is produced.

`run_lbp` keeps each message family in one (E, d) array over `g.layout`, in
the order its half-sweep writes it: variable-to-factor messages in bucket
order and factor-to-variable messages in block order (see
`lrbp.graph.EdgeLayout`). A half-sweep gathers the other family into its own
order once and hands every block or bucket its slice of rows as a slot-major
view, writing its results into the matching slice, so the leave-one-out
products run along axis 0. Errors and warnings still name edges in the edge
order of `lrbp.graph`. The factor groups are the layout's blocks, built with
the graph, and a low-rank block's (n, F, d, R) CP weights are `g.cp_blocks`,
gathered from the params by the graph's first solve, so a later solve
gathers nothing. `run_lbp` pairs each block, in block order, with its
kernel and payload, and one loop runs them all. A low-rank block holds the
factors of one (arity n, rank R): it projects its (n, F, d) rows through its
weights, takes the leave-one-out Hadamard product over the slot axis and
maps back, O(n * d * R) per factor.
The dense block of one arity goes in one call, by recursive halving: two
matrix-vector products, against the outer products of the first and of the
last half of a factor's rows, reduce its table to two tables of half the
arity, whose messages are the factor's, and the halves recurse, batched over
the block, down to arity 1. The outer products are `tensors._outer`, which
also fixes the axis order of every table. Those two products are the only reads of a
table and run per factor, in place, so all n messages cost 2 * d**n
multiply-adds plus terms of order d**ceil(n/2). Variables are bucketed
by degree D: a bucket takes the leave-one-out product of its (D, V, d) rows
times the unary, O(D * d) each. Both leave-one-out products are
`tensors.leave_one_out`, which scans the slot axis slab by slab, or by
cumprod when it is longer than a slab.

This edge-array layout is the only one in the package. The one-message dict
reference and the full-table marginalizer that the tests check `run_lbp`
against live in `tests/reference.py`.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

# No solve calls factor_cp; the alias stays because benchmarks/test_bench.py
# checks that the benchmark's tracer wraps it here.
from .graph import FactorGraph, _views, factor_cp, joint_table  # noqa: F401
from .tensors import _integer, _outer, leave_one_out

NEGATIVE_TOL = -1e-12


class ZeroMessageError(Exception):
    """A message or belief normalized to zero total mass."""


class SignViolationWarning(UserWarning):
    """A low-rank update produced negative entries (mixed-sign weights)."""


@dataclass
class BeliefSet:
    """The beliefs of a solve and how it ended. The last delta is
    `trace[-1][1]`; `exact_marginals` and a solve of 0 iterations leave
    the trace empty."""

    beliefs: np.ndarray  # (num_vars, d), rows sum to 1
    converged: bool
    iterations_used: int
    trace: tuple[tuple[int, float], ...] = ()  # (iteration, delta) per iteration


@dataclass
class LBPOptions:
    max_iters: int = 200
    tol: float = 1e-8
    damping: float = 0.0


def _row_sums(x: np.ndarray) -> np.ndarray:
    """x summed along its last axis, kept as an axis of length 1, by adding
    its columns in turn. Below 8 columns that is np.sum's order, so the sums
    are bitwise np.sum's but for the sign of an all-zero sum; from 8 on,
    np.sum adds pairwise and the two differ by rounding."""
    total = x[..., :1].copy()
    for k in range(1, x.shape[-1]):
        total += x[..., k:k + 1]
    return total


def _normalize(raw: np.ndarray, what: str, *keys, edges: np.ndarray | None = None) -> np.ndarray:
    """`raw` over its sums along the last axis. A row whose sum is +inf is
    first divided by its maximum, so that finite entries whose sum overflows
    still normalize; a row with an infinite entry stays non-finite. A zero
    sum raises, naming the row of the first edge among the zero rows by
    `what.format(*(k[edge] for k in keys))`; `edges` holds the edge of each
    row, by default its index."""
    total = _row_sums(raw)
    over = total == math.inf
    if over.any():
        raw = raw / np.where(over, raw.max(axis=-1, keepdims=True), 1.0)
        total = _row_sums(raw)
    zero = np.flatnonzero(total == 0.0)
    if zero.size:
        edge = zero[0] if edges is None else edges[zero].min()
        what = what.format(*(int(k[edge]) for k in keys))
        raise ZeroMessageError(f"{what} normalized to zero mass")
    return raw / total


def _lowrank_messages(w: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Unnormalized messages of F low-rank factors of one shape: message k
    of factor f is W_k @ (Hadamard product over l != k of W_l^T m_l), for
    slot-major (n, F, d, R) weights w and (n, F, d) incoming messages m."""
    gamma = np.einsum("nfdr,nfd->nfr", w, m)
    return np.einsum("nfdr,nfr->nfd", w, leave_one_out(gamma))


def _halve(t: np.ndarray, m: np.ndarray, out: np.ndarray) -> None:
    """Write into `out` the (j, F, d) messages of F j-ary tables, the rows of
    `t` (F, d**j), for slot-major rows `m` (j, F, d): the step of
    `_dense_messages` batched over the factors."""
    j, F, d = m.shape
    if j == 1:
        out[0] = t
        return
    k = j // 2
    t = t.reshape(F, d ** k, -1)
    _halve(np.matmul(t, _outer(m[k:])[:, :, None])[:, :, 0], m[:k], out[:k])
    _halve(np.matmul(_outer(m[:k])[:, None, :], t)[:, 0], m[k:], out[k:])


def _dense_messages(tables: list[np.ndarray], m: np.ndarray) -> np.ndarray:
    """Unnormalized messages of F dense factors of arity n: message k of
    factor f sums the C-contiguous (d,) * n table `tables[f]` times every row
    of m[:, f] but row k, for slot-major (n, F, d) incoming `m`.

    Recursive halving: with k = n // 2 and the table viewed as a
    (d**k, d**(n-k)) matrix T, z = T @ outer(m_k..m_{n-1}) is a k-ary table
    whose messages under rows m_0..m_{k-1} are the messages into slots
    0..k-1, and a = outer(m_0..m_{k-1}) @ T is an (n-k)-ary table that gives
    the messages into slots k..n-1 the same way. Both halves recurse,
    batched over the F factors, down to arity 1, where the message is the
    table itself. The two matrix-vector products per factor are the only
    reads of a table, which is never stacked or copied, and every
    intermediate holds O(F * d**ceil(n/2)) doubles. All n messages cost
    2 * d**n multiply-adds plus terms of order d**ceil(n/2); marginalizing
    the full table once per message costs n**2 * d**n."""
    n, F, d = m.shape
    out = np.empty((n, F, d))
    if n == 1:
        out[0] = tables
        return out
    k = n // 2
    head, tail = _outer(m[:k]), _outer(m[k:])
    z, a = np.empty((F, d ** k)), np.empty((F, d ** (n - k)))
    for f, t in enumerate(tables):
        t = t.reshape(d ** k, -1)
        np.matmul(t, tail[f], out=z[f])
        np.matmul(head[f], t, out=a[f])
    _halve(z, m[:k], out[:k])
    _halve(a, m[k:], out[k:])
    return out


def run_lbp(g: FactorGraph, opts: LBPOptions | None = None) -> BeliefSet:
    """Run synchronous-flooding sum-product LBP until the max-norm message
    change drops below opts.tol or opts.max_iters is reached.

    Low-rank payloads always take the low-rank path. Optional damping blends
    each new message with its previous value (damping 0 reproduces the
    undamped update bit for bit). Messages start uniform. The result's trace
    holds (iteration, delta) for every iteration run.

    A zero-mass message or belief raises ZeroMessageError, naming the first
    in edge order; a non-finite one raises FloatingPointError. Low-rank messages with
    negative entries (mixed-sign weights) give one SignViolationWarning per
    run, with their count, the most negative entry and the first of them.
    A max_iters that is not an integer >= 0, a tol that is not positive or
    a damping outside [0, 1) raises ValueError.
    """
    opts = opts or LBPOptions()
    max_iters = _integer(opts.max_iters, "max_iters", 0)
    if not opts.tol > 0:
        raise ValueError(f"tol must be positive, got {opts.tol}")
    if not 0.0 <= opts.damping < 1.0:
        raise ValueError(f"damping must be in [0, 1), got {opts.damping}")

    lay, d = g.layout, g.cardinality
    var, fac = lay.var, lay.fac
    # the gathers each half-sweep reads and the raw messages it writes, both
    # in its own message order; every bucket and block views its slice of both
    into_buckets, raw_v2f = np.empty((var.size, d)), np.empty((var.size, d))
    into_blocks, raw_f2v = np.empty((var.size, d)), np.empty((var.size, d))
    buckets = [(vs, g.unary[vs], *views) for (vs, _), views
               in zip(lay.buckets, _views(lay.buckets, into_buckets, raw_v2f))]
    # each block in block order with its kernel and payload: CP weights, or
    # dense tables read in place, since a stack would copy every table
    kernels = [(_lowrank_messages, w) for w in g.cp_blocks] + [
        (_dense_messages, [g.factors[a].payload.table for a in ids.tolist()])
        for ids, _ in lay.dense]
    blocks = list(zip(kernels, _views(lay.lowrank + lay.dense, into_blocks, raw_f2v)))
    num_lowrank = sum(e.size for _, e in lay.lowrank)  # the low-rank rows come first
    v2f = f2v = np.full((var.size, d), 1.0 / d)  # never written in place
    trace: list[tuple[int, float]] = []
    delta = math.inf
    iteration = 0
    negative = []  # per iteration with any: (first edge, count, most negative entry)

    # np.take(mode="clip") writes straight into its `out`; the indices are in range
    with np.errstate(over="ignore", invalid="ignore"):
        for iteration in range(1, max_iters + 1):
            np.take(f2v, lay.to_buckets, axis=0, out=into_buckets, mode="clip")
            for _, u, incoming, out in buckets:
                np.multiply(leave_one_out(incoming), u, out=out)
            new_v2f = _normalize(raw_v2f, "message {}->{}", var, fac, edges=lay.bucket_edges)
            if opts.damping:
                new_v2f = (1.0 - opts.damping) * new_v2f + opts.damping * v2f
            np.take(new_v2f, lay.to_blocks, axis=0, out=into_blocks, mode="clip")
            for (kernel, payload), (incoming, out) in blocks:
                out[...] = kernel(payload, incoming)
            low = raw_f2v[:num_lowrank]
            if low.min(initial=0.0) < NEGATIVE_TOL:
                bad = np.flatnonzero((low < NEGATIVE_TOL).any(axis=1))
                negative.append((lay.block_edges[bad].min(), bad.size, low[bad].min()))
            new_f2v = _normalize(raw_f2v, "message {}->{}", fac, var, edges=lay.block_edges)
            if opts.damping:
                new_f2v = (1.0 - opts.damping) * new_f2v + opts.damping * f2v
            # np.maximum, not max(), so that a NaN in either family reaches delta;
            # the previous messages are finite, so only a non-finite delta needs a scan
            delta = float(np.maximum(np.abs(new_v2f - v2f).max(initial=0.0),
                                     np.abs(new_f2v - f2v).max(initial=0.0)))
            if not math.isfinite(delta):
                for msgs, edges, keys in ((new_v2f, lay.bucket_edges, (var, fac)),
                                          (new_f2v, lay.block_edges, (fac, var))):
                    bad = np.flatnonzero(~np.isfinite(msgs).all(axis=1))
                    if bad.size:
                        key = tuple(int(k[edges[bad].min()]) for k in keys)
                        raise FloatingPointError(
                            f"non-finite message {key} at iteration {iteration}")
            v2f, f2v = new_v2f, new_f2v
            trace.append((iteration, delta))
            if delta < opts.tol:
                break
        beliefs = g.unary.copy()
        np.take(f2v, lay.to_buckets, axis=0, out=into_buckets, mode="clip")
        for vs, _, incoming, _ in buckets:
            beliefs[vs] *= incoming.prod(axis=0)
        beliefs = _normalize(beliefs, "belief of variable {}", range(g.num_vars))
    bad = np.flatnonzero(~np.isfinite(beliefs).all(axis=1))
    if bad.size:  # a unary that no message read: in no factor, or with max_iters=0
        raise FloatingPointError(f"non-finite belief of variable {bad[0]}")

    if negative:
        e = negative[0][0]
        warnings.warn(f"{sum(n[1] for n in negative)} low-rank messages had negative entries "
                      f"(min {min(n[2] for n in negative):.3e}, first {int(fac[e])}->{int(var[e])}); "
                      "mixed-sign weights void the probabilistic guarantees",
                      SignViolationWarning, stacklevel=2)
    return BeliefSet(
        beliefs=beliefs,
        converged=delta < opts.tol,
        iterations_used=iteration,
        trace=tuple(trace),
    )


def exact_marginals(g: FactorGraph) -> BeliefSet:
    """Exact per-variable marginals by summing the joint table.

    Ground truth for tree tests; raises CapacityError as `joint_table` does.
    """
    joint, z = joint_table(g)
    out = np.empty((g.num_vars, g.cardinality))
    for i in range(g.num_vars):
        axes = tuple(ax for ax in range(g.num_vars) if ax != i)
        out[i] = joint.sum(axis=axes) / z if axes else joint / z
    return BeliefSet(beliefs=out, converged=True, iterations_used=0)
