"""Sum-product loopy belief propagation over dense and low-rank factors,
and exact marginals by enumeration.

Updates run on a synchronous flooding schedule: one iteration computes all
variable-to-factor messages from the previous factor-to-variable buffer,
then all factor-to-variable messages from the fresh variable-to-factor
buffer. Every message is L1-normalized as it is produced.

`run_lbp` keeps each message family in one (E, d) array over `g.layout`, in
the edge order that `lrbp.graph` defines. The layout's edge blocks are
slot-major, so every gather puts the slot axis first. The factor groups are
the layout's blocks, built once per graph; a solve only stacks each low-rank
block's CP weights. A low-rank block holds the factors of one (arity n,
rank R): it projects its (n, F, d) rows through its (n, F, d, R) weights,
takes the leave-one-out Hadamard product over the slot axis and maps back,
O(n * d * R) per factor. The dense block of one arity goes in one call: a
prefix contraction of each table against suffix outer products of the rows
sends all n messages of a factor in O(d**n). The two steps that read a table
run per factor, in place; the rest are batched matmuls over chunks of
factors. Variables are bucketed by degree D: a bucket takes the leave-one-out
product of its (D, V, d) rows times the unary, O(D * d) each. Both
leave-one-out products are `tensors.leave_one_out`, which scans the slot axis
slab by slab, or by cumprod when it is longer than a slab.

This edge-array layout is the only one in the package. The one-message dict
reference and the full-table marginalizer that the tests check `run_lbp`
against live in `tests/reference.py`.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .graph import FactorGraph, factor_cp, joint_table
from .tensors import DEFAULT_CAPACITY, leave_one_out

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


def _normalize(raw: np.ndarray, what: str, *keys) -> np.ndarray:
    """`raw` over its sums along the last axis. A row whose sum is +inf is
    first divided by its maximum, so that finite entries whose sum overflows
    still normalize; a row with an infinite entry stays non-finite. The first
    zero sum raises, naming its row by `what.format(*(k[row] for k in keys))`."""
    total = raw.sum(axis=-1, keepdims=True)
    over = total == math.inf
    if over.any():
        raw = raw / np.where(over, raw.max(axis=-1, keepdims=True), 1.0)
        total = raw.sum(axis=-1, keepdims=True)
    zero = np.flatnonzero(total == 0.0)
    if zero.size:
        what = what.format(*(int(k[zero[0]]) for k in keys))
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
    factor f sums the flat (d**n,) table `tables[f]` times every row of
    m[:, f] but row k, for slot-major (n, F, d) incoming `m`.

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
    """
    opts = opts or LBPOptions()
    if not opts.tol > 0:
        raise ValueError(f"tol must be positive, got {opts.tol}")
    if not 0.0 <= opts.damping < 1.0:
        raise ValueError(f"damping must be in [0, 1), got {opts.damping}")

    lay, d = g.layout, g.cardinality
    var, fac = lay.var, lay.fac
    # the parts of a solve that read the payloads; dense tables are read in
    # place, since a stack would copy every table on each solve
    groups = [(edges, np.stack([factor_cp(g, a).weights for a in ids.tolist()], axis=1))
              for ids, edges in lay.lowrank]
    dense = [(edges, [g.factors[a].payload.tensor.data for a in ids.tolist()])
             for ids, edges in lay.dense]
    unary = g.unary if g.unary is not None else np.ones((g.num_vars, d))
    buckets = [(vs, edges, unary[vs]) for vs, edges in lay.buckets]
    v2f = f2v = np.full((var.size, d), 1.0 / d)  # never written in place
    trace: list[tuple[int, float]] = []
    delta = math.inf
    iteration = 0
    negative = []  # per iteration with any: (first edge, count, most negative entry)

    with np.errstate(over="ignore", invalid="ignore"):
        for iteration in range(1, opts.max_iters + 1):
            raw = np.empty_like(f2v)
            for _, edges, u in buckets:
                raw[edges] = leave_one_out(f2v[edges]) * u
            new_v2f = _normalize(raw, "message {}->{}", var, fac)
            if opts.damping:
                new_v2f = (1.0 - opts.damping) * new_v2f + opts.damping * v2f
            raw = np.zeros_like(new_v2f)
            for edges, w in groups:
                raw[edges] = _lowrank_messages(w, new_v2f[edges])
            if raw.min(initial=0.0) < NEGATIVE_TOL:  # dense rows are still 0
                bad = np.flatnonzero((raw < NEGATIVE_TOL).any(axis=1))
                negative.append((bad[0], bad.size, raw[bad].min()))
            for edges, tables in dense:
                raw[edges] = _dense_messages(tables, new_v2f[edges])
            new_f2v = _normalize(raw, "message {}->{}", fac, var)
            if opts.damping:
                new_f2v = (1.0 - opts.damping) * new_f2v + opts.damping * f2v
            # np.maximum, not max(), so that a NaN in either family reaches delta;
            # the previous messages are finite, so only a non-finite delta needs a scan
            delta = float(np.maximum(np.abs(new_v2f - v2f).max(initial=0.0),
                                     np.abs(new_f2v - f2v).max(initial=0.0)))
            if not math.isfinite(delta):
                for msgs, keys in ((new_v2f, (var, fac)), (new_f2v, (fac, var))):
                    bad = np.flatnonzero(~np.isfinite(msgs).all(axis=1))
                    if bad.size:
                        key = tuple(int(k[bad[0]]) for k in keys)
                        raise FloatingPointError(
                            f"non-finite message {key} at iteration {iteration}")
            v2f, f2v = new_v2f, new_f2v
            trace.append((iteration, delta))
            if delta < opts.tol:
                break
        beliefs = unary.copy()
        for vs, edges, _ in buckets:
            beliefs[vs] *= f2v[edges].prod(axis=0)
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


def exact_marginals(g: FactorGraph, cap: int = DEFAULT_CAPACITY) -> BeliefSet:
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
