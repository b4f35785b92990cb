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
order of `lrbp.graph`. The factor groups are the layout's blocks, and a
low-rank block's (n, F, d, R) CP weights are `g.cp_blocks`, read from the
stacks the graph builds; both are built once per graph, so a solve stacks
nothing. A low-rank block holds the factors of one (arity n, rank R): it
projects its (n, F, d) rows through its weights, takes the leave-one-out
Hadamard product over the slot axis and maps back, O(n * d * R) per factor.
The dense block of one arity goes in one call: a prefix contraction of each
table against suffix outer products of the rows sends all n messages of a
factor in O(d**n). The two steps that read a table run per factor, in place;
the rest are batched matmuls over chunks of factors. Variables are bucketed
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
from .graph import FactorGraph, factor_cp, joint_table  # noqa: F401
from .tensors import leave_one_out

NEGATIVE_TOL = -1e-12
# doubles in one chunk's intermediate in `_dense_messages` (512 KiB)
_CHUNK = 2 ** 16


class ZeroMessageError(Exception):
    """A message or belief normalized to zero total mass."""


class SignViolationWarning(UserWarning):
    """A low-rank update produced negative entries (mixed-sign weights)."""


@dataclass
class BeliefSet:
    beliefs: np.ndarray  # (num_vars, d), rows sum to 1
    converged: bool
    iterations_used: int
    final_delta: float
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


def _dense_messages(tables: list[np.ndarray], m: np.ndarray) -> np.ndarray:
    """Unnormalized messages of F dense factors of arity n: message k of
    factor f sums the C-contiguous (d,) * n table `tables[f]` times every row
    of m[:, f] but row k, for slot-major (n, F, d) incoming `m`.

    With S_k the outer product of rows k+1..n-1 and `acc` the table already
    contracted with rows 0..k-1, message k is `acc @ S_k` over acc's leading
    axis. All n messages cost about 2 * d / (d - 1) * d**n multiply-adds;
    marginalizing the full table once per message costs n**2 * d**n.

    Factors go in chunks whose (c, d**(n-1)) intermediate holds at most
    `_CHUNK` doubles. Only the two steps that read a table, message 0 and the
    first prefix contraction, run per factor; every later step is one
    batched matmul over the chunk. Each factor's products are the same
    matrix-vector products in the same order whatever the chunk size."""
    n, F, d = m.shape
    out = np.empty((n, F, d))
    c = max(1, _CHUNK // d ** (n - 1))
    for lo in range(0, F, c):
        mc, tc = m[:, lo:lo + c], tables[lo:lo + c]
        suffix = [np.ones((len(tc), 1))]  # suffix[j] is S_{n-1-j}, (c, d**j)
        for row in mc[:0:-1]:
            suffix.append((row[:, :, None] * suffix[-1][:, None, :]).reshape(len(tc), -1))
        acc = np.empty((len(tc), d ** (n - 1)))
        for i, t in enumerate(tc):
            t = t.reshape(d, -1)
            np.matmul(t, suffix[-1][i], out=out[0, lo + i])
            np.matmul(mc[0, i], t, out=acc[i])
        for k in range(1, n):
            acc = acc.reshape(len(tc), d, -1)
            out[k, lo:lo + c] = np.matmul(acc, suffix[n - 1 - k][:, :, None])[:, :, 0]
            if k < n - 1:
                acc = np.matmul(mc[k][:, None, :], acc)
    return out


def _views(groups: tuple, *arrays: np.ndarray) -> list[list[np.ndarray]]:
    """Per group, each (E, d) array's rows of the group's edge block, in a
    message order that ravels the blocks in turn, as a slot-major view of
    the block's shape plus (d,)."""
    views, lo = [], 0
    for _, e in groups:
        views.append([x[lo:lo + e.size].reshape(*e.shape, x.shape[1]) for x in arrays])
        lo += e.size
    return views


def run_lbp(g: FactorGraph, opts: LBPOptions | None = None) -> BeliefSet:
    """Run synchronous-flooding sum-product LBP until the max-norm message
    change drops below opts.tol or opts.max_iters is reached.

    Low-rank payloads always take the low-rank path. Optional damping blends
    each new message with its previous value (damping 0 reproduces the
    undamped update bit for bit). Messages start uniform. The result's trace
    holds (iteration, delta) for every iteration run.

    A zero-mass message raises ZeroMessageError, naming the first in edge
    order; a non-finite one raises FloatingPointError. Low-rank messages with
    negative entries (mixed-sign weights) give one SignViolationWarning per
    run, with their count, the most negative entry and the first of them.
    A negative max_iters, a tol that is not positive or a damping outside
    [0, 1) raises ValueError.
    """
    opts = opts or LBPOptions()
    if not opts.max_iters >= 0:
        raise ValueError(f"max_iters must be >= 0, got {opts.max_iters}")
    if not opts.tol > 0:
        raise ValueError(f"tol must be positive, got {opts.tol}")
    if not 0.0 <= opts.damping < 1.0:
        raise ValueError(f"damping must be in [0, 1), got {opts.damping}")

    lay, d = g.layout, g.cardinality
    var, fac = lay.var, lay.fac
    unary = g.unary if g.unary is not None else np.ones((g.num_vars, d))
    # the gathers each half-sweep reads and the raw messages it writes, both
    # in its own message order; every bucket and block views its slice of both
    into_buckets, raw_v2f = np.empty((var.size, d)), np.empty((var.size, d))
    into_blocks, raw_f2v = np.empty((var.size, d)), np.empty((var.size, d))
    buckets = [(vs, unary[vs], *views) for (vs, _), views
               in zip(lay.buckets, _views(lay.buckets, into_buckets, raw_v2f))]
    blocks = _views(lay.lowrank + lay.dense, into_blocks, raw_f2v)
    lowrank = [(w, *views) for w, views in zip(g.cp_blocks, blocks)]
    # dense tables are read in place, since a stack would copy every table
    dense = [([g.factors[a].payload.table for a in ids.tolist()], *views)
             for (ids, _), views in zip(lay.dense, blocks[len(lowrank):])]
    num_lowrank = sum(e.size for _, e in lay.lowrank)  # the low-rank rows come first
    v2f = f2v = np.full((var.size, d), 1.0 / d)  # never written in place
    trace: list[tuple[int, float]] = []
    delta = math.inf
    iteration = 0
    negative = []  # per iteration with any: (first edge, count, most negative entry)

    # np.take(mode="clip") writes straight into its `out`; the indices are in range
    with np.errstate(over="ignore", invalid="ignore"):
        for iteration in range(1, opts.max_iters + 1):
            np.take(f2v, lay.to_buckets, axis=0, out=into_buckets, mode="clip")
            for _, u, incoming, out in buckets:
                np.multiply(leave_one_out(incoming), u, out=out)
            new_v2f = _normalize(raw_v2f, "message {}->{}", var, fac, edges=lay.bucket_edges)
            if opts.damping:
                new_v2f = (1.0 - opts.damping) * new_v2f + opts.damping * v2f
            np.take(new_v2f, lay.to_blocks, axis=0, out=into_blocks, mode="clip")
            for w, incoming, out in lowrank:
                out[...] = _lowrank_messages(w, incoming)
            low = raw_f2v[:num_lowrank]
            if low.min(initial=0.0) < NEGATIVE_TOL:
                bad = np.flatnonzero((low < NEGATIVE_TOL).any(axis=1))
                negative.append((lay.block_edges[bad].min(), bad.size, low[bad].min()))
            for tables, incoming, out in dense:
                out[...] = _dense_messages(tables, incoming)
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
        beliefs = unary.copy()
        np.take(f2v, lay.to_buckets, axis=0, out=into_buckets, mode="clip")
        for vs, _, incoming, _ in buckets:
            beliefs[vs] *= incoming.prod(axis=0)
        beliefs = _normalize(beliefs, "belief of variable {}", range(g.num_vars))

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
        final_delta=delta,
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
    return BeliefSet(beliefs=out, converged=True, iterations_used=0, final_delta=0.0)
