"""Neuralized low-rank message passing over a factor graph.

Node states are unconstrained real vectors. One layer computes, per node i,
the sum over its factors of W_out[slot(a,i)] @ hadamard_{j in scope(a), j != i}
(W_in[slot(a,j)]^T h_j), feeds the sum through a one-hidden-layer ReLU MLP,
and adds the result to the previous state (residual connection). Each
parameter slot carries a doubled pair of matrices: W_in transforms before the
Hadamard product, W_out after.

A layer runs on the graph's edge arrays (`g.layout`, in the edge order that
`lrbp.graph` defines) and takes its groups from the graph, built once per
graph: one batched matmul over the stacked slot matrices per group of slots
with the same edge count (`g.slots.groups`), the shared
`tensors.leave_one_out` kernel on the slot-major (n, F, R) gather of each of
the layout's factor blocks (`lowrank` and `dense`, as LBP batches them), and
each node sums its messages over axis 0 of its degree bucket's slot-major
(D, V, d_h) gather. Graph slots bind to parameter rows by slot id. Its
hand-derived backward takes the leave-two-out sums from
`tensors.leave_one_out_tangent`, the same slab scan over dual numbers, never
by division.
Parameters are read-only during a step; all update functions return fresh structures.

A `LayerParams` holds its arrays in one table, keyed by name (see
`LayerParams`). Gradients, Adam moments and checkpoints use the same names:
`lrbp_backward` adds each layer's gradients into a table the caller owns, and a
checkpoint is the JSON object {"d_h", "rank", "slots", "arrays", "optimizer":
null | {"step", "m", "v"}}.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .graph import FactorGraph, _integer
from .tensors import leave_one_out, leave_one_out_tangent


@dataclass(frozen=True, eq=False)  # identity equality: fields hold arrays
class HiddenStates:
    """Per-node real state vectors (num_nodes, d_h)."""

    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise ValueError(f"hidden states must be 2-d, got shape {v.shape}")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True, eq=False)  # identity equality: fields hold arrays
class LayerParams:
    """Parameters shared by every layer of a stack, as one named table.

    `arrays` maps each name to its array, in this order:

        slot/w_in, slot/w_out  (S, d_h, R)     row k is slot slot_ids[k]
        mlp/w1                 (d_mlp, d_h)
        mlp/b1                 (d_mlp,)
        mlp/w2                 (d_h, d_mlp)
        mlp/b2                 (d_h,)
        readout/w              (out_dim, d_h)  readout affine map
        readout/b              (out_dim,)
    """

    d_h: int
    rank: int
    slot_ids: tuple[str, ...]
    arrays: dict[str, np.ndarray]


def graph_slot_ids(g: FactorGraph) -> list[str]:
    """All slot ids of a graph in first-appearance order, deduplicated."""
    return list(g.slots.ids)


def init_layer_params(
    slot_ids,
    d_h: int,
    rank: int,
    out_dim: int = 1,
    d_mlp: int | None = None,
    seed: int = 0,
) -> LayerParams:
    """Seeded uniform init: slot matrices on [-1/sqrt(R), 1/sqrt(R)] so that
    Hadamard products stay scale-stable, MLP and readout on
    [-1/sqrt(fan_in), 1/sqrt(fan_in)].

    Slots, MLP and readout each draw from their own child stream of
    `SeedSequence(seed)`, so for a given seed the MLP and readout arrays do
    not depend on the slot ids, and slot k's matrices (w_in, then w_out) do
    not depend on the slots after it. A repeated slot id counts once.
    """
    slot_ids = tuple(dict.fromkeys(slot_ids))
    d_mlp = 2 * d_h if d_mlp is None else d_mlp
    slot_rng, mlp_rng, ro_rng = (
        np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(3)
    )
    s = 1.0 / np.sqrt(rank)
    draws = slot_rng.uniform(-s, s, size=(len(slot_ids), 2, d_h, rank))
    s1 = 1.0 / np.sqrt(d_h)
    s2 = 1.0 / np.sqrt(d_mlp)
    return LayerParams(d_h, rank, slot_ids, {
        "slot/w_in": draws[:, 0].copy(),
        "slot/w_out": draws[:, 1].copy(),
        "mlp/w1": mlp_rng.uniform(-s1, s1, size=(d_mlp, d_h)),
        "mlp/b1": mlp_rng.uniform(-s1, s1, size=d_mlp),
        "mlp/w2": mlp_rng.uniform(-s2, s2, size=(d_h, d_mlp)),
        "mlp/b2": mlp_rng.uniform(-s2, s2, size=d_h),
        "readout/w": ro_rng.uniform(-s1, s1, size=(out_dim, d_h)),
        "readout/b": ro_rng.uniform(-s1, s1, size=out_dim),
    })


def named_arrays(p: LayerParams) -> dict[str, np.ndarray]:
    """A new name -> array dict over p's arrays, in table order; editing the
    dict leaves p unchanged."""
    return dict(p.arrays)


def replace_arrays(p: LayerParams, named: dict[str, np.ndarray]) -> LayerParams:
    """The LayerParams with p's names, in p's order, and the arrays of `named`."""
    return LayerParams(p.d_h, p.rank, p.slot_ids, {name: named[name] for name in p.arrays})


@dataclass
class Tape:
    """Forward intermediates needed by the hand-derived backward pass."""

    params: LayerParams
    h_in: np.ndarray
    graph: FactorGraph  # its layout and slots index the edge arrays below
    rows: np.ndarray  # (S,): the row of params' slot arrays of each slot of graph.slots
    u: np.ndarray  # (E, R): W_in^T h of each edge's node
    loo: np.ndarray  # (E, R): Hadamard product of the other slots' u in its factor
    agg: np.ndarray
    z: np.ndarray  # MLP pre-activations
    r: np.ndarray  # relu(z)


def lrbp_forward(h: HiddenStates, g: FactorGraph, p: LayerParams) -> tuple[HiddenStates, Tape]:
    """One message-passing layer; returns the new states and the tape.

    Deterministic: repeated calls on identical inputs are bitwise equal.
    Raises on unmapped slot ids and on non-finite intermediates.
    """
    values = h.values
    if values.shape != (g.num_vars, p.d_h):
        raise ValueError(
            f"hidden states have shape {values.shape}, expected {(g.num_vars, p.d_h)}"
        )
    if not np.all(np.isfinite(values)):
        raise FloatingPointError("non-finite input hidden states")

    lay, w, sids = g.layout, p.arrays, g.slots.ids
    # rows[k]: the row of p's slot arrays for g's slot k
    index = {sid: k for k, sid in enumerate(p.slot_ids)}
    rows = np.array([index.get(sid, -1) for sid in sids], dtype=np.intp)
    if np.any(rows < 0):  # sids are in first-appearance order, so the first bad edge is named
        k = np.flatnonzero(rows < 0)[0]
        raise ValueError(f"factor {lay.fac[g.slots.slot == k][0]}: unmapped slot id {sids[k]!r}")
    var = lay.var
    u = np.empty((var.size, p.rank))
    loo = np.empty_like(u)
    msg = np.empty((var.size, p.d_h))
    # overflow shows as the non-finite message below, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for s, e in g.slots.groups:  # (S_c, c, d_h) @ (S_c, d_h, R)
            u[e] = values[var[e]] @ w["slot/w_in"][rows[s]]
        for _, e in lay.lowrank + lay.dense:
            loo[e] = leave_one_out(u[e])
        for s, e in g.slots.groups:
            msg[e] = loo[e] @ w["slot/w_out"][rows[s]].transpose(0, 2, 1)
    bad = np.flatnonzero(~np.isfinite(msg).all(axis=1))
    if bad.size:
        raise FloatingPointError(
            f"non-finite message from factor {lay.fac[bad[0]]} into node {var[bad[0]]}"
        )
    agg = np.zeros_like(values)
    for vs, e in lay.buckets:  # each column in edge order
        agg[vs] = msg[e].sum(axis=0)

    z = agg @ w["mlp/w1"].T + w["mlp/b1"]
    r = np.maximum(z, 0.0)
    out = r @ w["mlp/w2"].T + w["mlp/b2"]
    new_values = values + out
    tape = Tape(params=p, h_in=values, graph=g, rows=rows, u=u, loo=loo, agg=agg, z=z, r=r)
    return HiddenStates(new_values), tape


def lrbp_backward(tape: Tape, upstream: np.ndarray, grads: dict[str, np.ndarray]) -> np.ndarray:
    """Exact reverse-mode gradients of one layer; returns the gradient w.r.t.
    the layer's input states.

    `upstream` is the loss gradient w.r.t. the layer's output states. The
    parameter gradients are added in place into `grads`, the caller's table
    keyed like named_arrays; each slot adds into its row. The gradient w.r.t.
    u_l sums dloo_k times the product over the slots other than k and l, for
    k != l, in one `leave_one_out_tangent` pass (no division by possibly-zero
    factors). Overflow shows as non-finite values, not as numpy warnings.
    """
    w = tape.params.arrays
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != tape.h_in.shape:
        raise ValueError(
            f"upstream gradient shape {upstream.shape} != states shape {tape.h_in.shape}"
        )
    g, rows, var = tape.graph, tape.rows, tape.graph.layout.var
    with np.errstate(over="ignore", invalid="ignore"):
        grads["mlp/b2"] += upstream.sum(axis=0)
        grads["mlp/w2"] += upstream.T @ tape.r
        dz = (upstream @ w["mlp/w2"]) * (tape.z > 0)
        grads["mlp/b1"] += dz.sum(axis=0)
        grads["mlp/w1"] += dz.T @ tape.agg
        dmsg = (dz @ w["mlp/w1"])[var]
        dloo = np.empty_like(tape.loo)
        for s, e in g.slots.groups:
            grads["slot/w_out"][rows[s]] += dmsg[e].transpose(0, 2, 1) @ tape.loo[e]
            dloo[e] = dmsg[e] @ w["slot/w_out"][rows[s]]
        du = np.empty_like(tape.u)
        for _, e in g.layout.lowrank + g.layout.dense:
            du[e] = leave_one_out_tangent(tape.u[e], dloo[e])
        dh_edge = np.empty_like(dmsg)
        for s, e in g.slots.groups:
            grads["slot/w_in"][rows[s]] += tape.h_in[var[e]].transpose(0, 2, 1) @ du[e]
            dh_edge[e] = du[e] @ w["slot/w_in"][rows[s]].transpose(0, 2, 1)
        dh = upstream.copy()  # residual path
        for vs, e in g.layout.buckets:
            dh[vs] += dh_edge[e].sum(axis=0)
    return dh


def forward_stack(
    h: HiddenStates, g: FactorGraph, p: LayerParams, layers: int
) -> tuple[HiddenStates, list[Tape]]:
    """`layers` forward passes with shared parameters."""
    tapes = []
    cur = h
    for _ in range(layers):
        cur, tape = lrbp_forward(cur, g, p)
        tapes.append(tape)
    return cur, tapes


def backward_stack(tapes: list[Tape], upstream: np.ndarray, grads: dict[str, np.ndarray]) -> np.ndarray:
    """Backward through a stack of shared-parameter layers, adding every
    layer's gradients into `grads`; returns the gradient w.r.t. the stack's
    input states (`upstream` itself for an empty stack)."""
    for tape in reversed(tapes):
        upstream = lrbp_backward(tape, upstream, grads)
    return upstream


@dataclass
class GradCheckResult:
    max_relative_error: float
    worst_param: str | None
    checked: int
    skipped: int


def grad_check(
    g: FactorGraph,
    p: LayerParams,
    seed: int = 0,
    eps: float = 1e-5,
    layers: int = 3,
) -> GradCheckResult:
    """Compare hand-derived gradients against central finite differences.

    Loss is the sum of squared output states after `layers` stacked layers
    on seeded random inputs. A parameter coordinate is skipped when its
    +/-eps perturbations land on different sides of a ReLU kink (the
    activation masks of the two evaluations differ), where the central
    difference is invalid.

    The loss difference is formed from the two output arrays o+ and o-, as
    sum((o+ - o-) * (o+ + o-)) / (2 eps), which equals the difference of the
    two summed losses but does not cancel two large sums against each other.
    `worst_param` is named as `mlp/w1[<C-order index>]`, or in a slot array
    as `slot/w_in[<slot id>][<C-order index in that slot's matrix>]`.
    """
    rng = np.random.default_rng(seed)
    h0 = HiddenStates(rng.standard_normal((g.num_vars, p.d_h)))

    def output_and_masks():
        out, tapes = forward_stack(h0, g, p, layers)
        return out.values, [t.z > 0 for t in tapes]

    h_t, tapes = forward_stack(h0, g, p, layers)
    grads = {name: np.zeros_like(arr) for name, arr in p.arrays.items()}
    backward_stack(tapes, 2.0 * h_t.values, grads)

    worst = 0.0
    worst_name = None
    checked = 0
    skipped = 0
    for name, arr in p.arrays.items():
        # perturb the array itself (ravel() copies a non-C-contiguous one)
        for flat, idx in enumerate(np.ndindex(arr.shape)):
            orig = arr[idx]
            arr[idx] = orig + eps
            out_p, masks_p = output_and_masks()
            arr[idx] = orig - eps
            out_m, masks_m = output_and_masks()
            arr[idx] = orig
            if any(not np.array_equal(mp, mm) for mp, mm in zip(masks_p, masks_m)):
                skipped += 1
                continue
            numeric = float(np.sum((out_p - out_m) * (out_p + out_m))) / (2.0 * eps)
            analytic = grads[name][idx]
            rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-3)
            checked += 1
            if rel > worst:
                worst = rel
                worst_name = (f"{name}[{p.slot_ids[idx[0]]}][{flat % (p.d_h * p.rank)}]"
                              if name.startswith("slot/") else f"{name}[{flat}]")
    return GradCheckResult(worst, worst_name, checked, skipped)


def node_mean(values: np.ndarray) -> np.ndarray:
    """Mean over node vectors, bitwise invariant to node order.

    Each column is summed in sorted order, so relabelling nodes cannot
    change the reduction order.
    """
    return np.sort(values, axis=0).sum(axis=0) / values.shape[0]


def readout(h: HiddenStates, p: LayerParams) -> np.ndarray:
    """Graph embedding: mean over node states, then one affine map.

    Permutation-invariant by construction (bitwise: see node_mean).
    """
    if h.values.shape[0] == 0:
        raise ValueError("readout of an empty graph")
    return p.arrays["readout/w"] @ node_mean(h.values) + p.arrays["readout/b"]


@dataclass
class AdamState:
    step: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]


def adam_init(named: dict[str, np.ndarray]) -> AdamState:
    return AdamState(
        0,
        {k: np.zeros_like(a) for k, a in named.items()},
        {k: np.zeros_like(a) for k, a in named.items()},
    )


def adam_step(
    named: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[dict[str, np.ndarray], AdamState]:
    t = state.step + 1
    new, m, v = {}, {}, {}
    for k, arr in named.items():
        gk = grads[k]
        m[k] = beta1 * state.m[k] + (1.0 - beta1) * gk
        v[k] = beta2 * state.v[k] + (1.0 - beta2) * gk * gk
        m_hat = m[k] / (1.0 - beta1**t)
        v_hat = v[k] / (1.0 - beta2**t)
        new[k] = arr - lr * m_hat / (np.sqrt(v_hat) + eps)
    return new, AdamState(t, m, v)


def train_step(
    batch,
    p: LayerParams,
    opt_state: AdamState | None,
    lr: float = 1e-3,
    layers: int = 3,
):
    """One Adam step on mean absolute error of the readout.

    `batch` is a sequence of (graph, HiddenStates, target) triples. Runs
    `layers` forward passes, the readout, and the hand-derived backward;
    gradients accumulate over the batch in order into one table; with
    `layers=0` only the readout is fitted, on the mean input state. A step
    whose loss, gradients or new Adam second moments (squared gradients) are
    not finite, or whose forward pass raises `FloatingPointError` on any graph
    (a non-finite message or input), aborts: it returns the parameters and
    optimizer state it was given, and loss NaN. An empty batch, or a graph
    without nodes, raises ValueError before any forward pass. Returns
    (params, opt_state, loss).
    """
    if not batch or any(g.num_vars == 0 for g, _, _ in batch):
        raise ValueError("train_step needs a non-empty batch of non-empty graphs")
    named = named_arrays(p)
    grads = {k: np.zeros_like(a) for k, a in named.items()}
    total_loss = 0.0
    for g, h0, target in batch:
        target = np.atleast_1d(np.asarray(target, dtype=np.float64))
        try:
            h_t, tapes = forward_stack(h0, g, p, layers)
        except FloatingPointError:
            return p, opt_state, float("nan")
        resid = readout(h_t, p) - target
        total_loss += float(np.mean(np.abs(resid)))
        dpred = np.sign(resid) / resid.size
        grads["readout/w"] += np.outer(dpred, node_mean(h_t.values))
        grads["readout/b"] += dpred
        dmean = named["readout/w"].T @ dpred
        n_nodes = h_t.values.shape[0]
        backward_stack(tapes, np.tile(dmean / n_nodes, (n_nodes, 1)), grads)
    scale = 1.0 / len(batch)
    total_loss *= scale
    grads = {k: v * scale for k, v in grads.items()}
    with np.errstate(over="ignore", invalid="ignore"):  # v is checked instead
        new_named, new_state = adam_step(named, grads, opt_state or adam_init(named), lr)
    if not (np.isfinite(total_loss) and all(np.isfinite(v).all() for v in new_state.v.values())):
        return p, opt_state, float("nan")
    return replace_arrays(p, new_named), new_state, total_loss


def save_checkpoint(p: LayerParams, path, opt_state: AdamState | None = None) -> None:
    """JSON checkpoint; float round-trip is exact. The file holds `d_h`, `rank`,
    `slots` (p.slot_ids), `arrays` (named_arrays(p)) and `optimizer`: null, or
    the Adam `step` and the moments `m` and `v`, keyed like `arrays`."""
    doc = {
        "d_h": p.d_h,
        "rank": p.rank,
        "slots": list(p.slot_ids),
        "arrays": {name: a.tolist() for name, a in named_arrays(p).items()},
        "optimizer": None if opt_state is None else {
            "step": opt_state.step,
            "m": {k: v.tolist() for k, v in opt_state.m.items()},
            "v": {k: v.tolist() for k, v in opt_state.v.items()},
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_checkpoint(path) -> tuple[LayerParams, AdamState | None]:
    """Load a checkpoint written by save_checkpoint.

    A missing or malformed entry raises ValueError naming it (a field by its
    key, an array by its named_arrays name, a moment as optimizer/<m|v>/<name>),
    and so does a d_h, rank or optimizer/step that is not an integer (2.5,
    true), an array or moment whose shape disagrees with the slot count,
    d_h, rank, the MLP width (the length of mlp/b1) or the readout width (the
    length of readout/b), and a slot id that the list repeats. A checkpoint with
    one array per slot lacks slot/w_in."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)

    def field(convert, node, key, prefix=""):
        if not isinstance(node, dict) or key not in node:
            raise ValueError(f"checkpoint is missing {prefix}{key}")
        try:
            return convert(node[key])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"checkpoint field {prefix}{key}: {exc}") from exc

    def arr(x):
        return np.asarray(x, dtype=np.float64)

    def ids(x):
        if not isinstance(x, list) or not all(isinstance(sid, str) for sid in x):
            raise TypeError("expected a list of slot id strings")
        repeated = [sid for sid, count in Counter(x).items() if count > 1]
        if repeated:
            raise ValueError(f"repeated slot id {repeated[0]!r}")
        return tuple(x)

    def integer(x):  # 2.5 or true is refused, not truncated
        return _integer(x, "value")

    d_h, rank = field(integer, doc, "d_h"), field(integer, doc, "rank")
    slot_ids = field(ids, doc, "slots")
    arrays = field(dict, doc, "arrays")
    d_mlp, out_dim = field(arr, arrays, "mlp/b1").size, field(arr, arrays, "readout/b").size
    slot = (len(slot_ids), d_h, rank)
    want = {"slot/w_in": slot, "slot/w_out": slot, "mlp/w1": (d_mlp, d_h), "mlp/b1": (d_mlp,),
            "mlp/w2": (d_h, d_mlp), "mlp/b2": (d_h,), "readout/w": (out_dim, d_h),
            "readout/b": (out_dim,)}

    def table(node, prefix, what):
        out = {}
        for name, shape in want.items():
            x = field(arr, node, name, prefix)
            if x.size == 0 and 0 in shape:  # JSON keeps no shape for an empty array
                x = x.reshape(shape)
            if x.shape != shape:
                raise ValueError(f"checkpoint {what}{name} has shape {x.shape}, expected {shape}")
            out[name] = x
        return out

    p = LayerParams(d_h, rank, slot_ids, table(arrays, "", "array "))
    opt = doc.get("optimizer")
    if opt is None:
        return p, None
    moments = [table(field(dict, opt, k, "optimizer/"), f"optimizer/{k}/", f"optimizer {k} of ")
               for k in "mv"]
    return p, AdamState(field(integer, opt, "step", "optimizer/"), *moments)
