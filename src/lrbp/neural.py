"""Neuralized low-rank message passing over a factor graph.

Node states are unconstrained real vectors. One layer computes, per node i,
the sum over its factors of W_out[slot(a,i)] @ hadamard_{j in scope(a), j != i}
(W_in[slot(a,j)]^T h_j), feeds the sum through a one-hidden-layer ReLU MLP,
and adds the result to the previous state (residual connection). Each
parameter slot carries a doubled pair of matrices: W_in transforms before the
Hadamard product, W_out after.

A layer takes its groups from the graph, built once per graph: one batched
matmul over the stacked slot matrices per group of slots with the same edge
count (`g.slots.groups`), the shared `tensors.leave_one_out` kernel on the
slot-major (n, F, R) rows of each of the layout's factor blocks (`lowrank`
and `dense`, as LBP batches them), and each node sums its messages over axis
0 of its degree bucket's slot-major (D, V, d_h) gather. It keeps each (E, .)
edge array in the order of the phase that writes it, as LBP does: the
matmuls' arrays in slot order (`lrbp.graph.SlotIndex`) and the leave-one-out
kernels' in block order (`lrbp.graph.EdgeLayout`). So every group and block
reads and writes one contiguous slice of rows, and each phase reaches the
other order through one gather (`g.slots.to_blocks`, `from_blocks`); each
degree bucket sums its slot-order rows, `g.slots.buckets`, which are built
with the slot index, not per layer. Errors still name edges in the edge
order of `lrbp.graph`.
Graph slots bind to parameter rows by slot id. A stack of layers runs in
one way: `forward_stack` builds one `Tape` per stack, before its first layer,
and `backward_stack` reads it back, layer by layer. The tape holds the graph
and the params; what every layer shares, since it depends only on them and
the layer count: each slot group's parameter rows and its gathered
slot/w_in and slot/w_out rows, every layer's u and loo in one buffer, one
scratch buffer per edge array the forward or backward overwrites, and each
group and block view of them; and, appended by the forward, each layer's
input states, aggregate and MLP pre-activations. A tape lives for one stack
and is never cached, so an in-place edit of the params reaches the next
stack. The hand-derived backward takes the leave-two-out sums from
`tensors.leave_one_out_tangent`, the same slab scan over dual numbers, never
by division.
Parameters are read-only during a step; all update functions return fresh structures.

A `LayerParams` holds its slot ids and one table of arrays keyed by name.
Gradients, Adam moments and checkpoints use the same names:
`backward_stack` adds each layer's gradients into a table the caller owns, and a
checkpoint is the JSON object {"d_h", "rank", "slots", "arrays", "optimizer":
null | {"step", "m", "v"}}.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .graph import FactorGraph, _views
from .tensors import _float_array, _integer, _shaped, _slot_ids, leave_one_out, leave_one_out_tangent

# Adam's decay rates and denominator offset
BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True, eq=False)  # identity equality: fields hold arrays
class HiddenStates:
    """Per-node real state vectors (num_nodes, d_h), under the input contract
    of `lrbp.tensors`; a C-contiguous float64 array is kept, not copied."""

    values: np.ndarray

    def __post_init__(self):
        v = _float_array(self.values, "hidden states", copy=False)
        if v.ndim != 2:
            raise ValueError(f"hidden states must be 2-d, got shape {v.shape}")
        object.__setattr__(self, "values", v)


def _shapes(S: int, d_h: int, R: int, d_mlp: int, out_dim: int) -> dict[str, tuple[int, ...]]:
    """The names of a `LayerParams` table, in table order, and their shapes;
    row k of the slot arrays is slot k, and readout/w and b an affine map."""
    return {"slot/w_in": (S, d_h, R), "slot/w_out": (S, d_h, R), "mlp/w1": (d_mlp, d_h),
            "mlp/b1": (d_mlp,), "mlp/w2": (d_h, d_mlp), "mlp/b2": (d_h,),
            "readout/w": (out_dim, d_h), "readout/b": (out_dim,)}


@dataclass(frozen=True, eq=False)  # identity equality: fields hold arrays
class LayerParams:
    """Parameters shared by every layer of a stack, as one named table.

    `arrays` is a new dict, in table order, of the caller's arrays (not
    converted) under the names and shapes of `_shapes`, with sizes read from
    slot/w_in, mlp/b1 and readout/b; `slot_rows` maps each slot id to its
    row. Slot ids outside the input contract of `lrbp.tensors` or repeated,
    a missing or extra name, an entry that is not an np.ndarray of dtype kind
    f, i or u, or a wrong shape raise ValueError naming them.
    """

    slot_ids: tuple[str, ...]
    arrays: dict[str, np.ndarray]
    slot_rows: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        rows = _slot_ids(self.slot_ids, "slot_ids", unique=True)
        given = self.arrays
        try:  # a size whose axis is missing reads 0, and the shape check names its array
            s, b1, ro = (np.shape(given[k]) + (0, 0, 0) for k in ("slot/w_in", "mlp/b1", "readout/b"))
            want = _shapes(len(rows), s[1], s[2], b1[0], ro[0])
            arrays = {name: given[name] for name in want}
        except KeyError as exc:
            raise ValueError(f"arrays lack {exc.args[0]}") from None
        for name in given.keys() - want.keys():
            raise ValueError(f"arrays hold {name!r}, a name outside the table")
        for name, shape in want.items():
            x = arrays[name]
            if not isinstance(x, np.ndarray) or x.dtype.kind not in "fiu":
                what = f"dtype {x.dtype}" if isinstance(x, np.ndarray) else type(x).__name__
                raise ValueError(f"{name} must be a NumPy array of real numbers, got {what}")
            got = x.shape
            if got != shape:
                if name.startswith("slot/") and got[1:] == shape[1:]:
                    raise ValueError(f"slot_ids has {len(rows)} ids but {name} has {got[0]} rows")
                raise ValueError(f"{name} has shape {got}, expected {shape}")
        object.__setattr__(self, "slot_ids", tuple(rows))
        object.__setattr__(self, "arrays", arrays)
        object.__setattr__(self, "slot_rows", rows)

    @property
    def d_h(self) -> int:
        return self.arrays["slot/w_in"].shape[1]

    @property
    def rank(self) -> int:
        return self.arrays["slot/w_in"].shape[2]


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
    not depend on the slots after it. A repeated slot id counts once. A
    slot_ids that is a str or holds an id that is not, or a d_h, rank, d_mlp
    (by default 2 * d_h) or out_dim that is not a positive integer, raises
    ValueError.
    """
    slot_ids = tuple(dict.fromkeys(_slot_ids(slot_ids, "slot_ids")))
    d_h, rank = _integer(d_h, "d_h", 1), _integer(rank, "rank", 1)
    out_dim = _integer(out_dim, "out_dim", 1)
    d_mlp = _integer(2 * d_h if d_mlp is None else d_mlp, "d_mlp", 1)
    rngs = {group: np.random.default_rng(child) for group, child
            in zip(("slot", "mlp", "readout"), np.random.SeedSequence(seed).spawn(3))}
    shapes = _shapes(len(slot_ids), d_h, rank, d_mlp, out_dim)
    s = 1.0 / np.sqrt(rank)
    draws = rngs["slot"].uniform(-s, s, size=(len(slot_ids), 2, d_h, rank))
    arrays = {"slot/w_in": draws[:, 0].copy(), "slot/w_out": draws[:, 1].copy()}
    for name, shape in list(shapes.items())[2:]:  # in table order, from each group's stream
        if len(shape) == 2:  # a weight matrix, whose bias comes next and shares its fan-in
            s = 1.0 / np.sqrt(shape[1])
        arrays[name] = rngs[name.split("/")[0]].uniform(-s, s, size=shape)
    return LayerParams(slot_ids, arrays)


def named_arrays(p: LayerParams) -> dict[str, np.ndarray]:
    """A new name -> array dict over p's arrays, in table order; editing the
    dict leaves p unchanged."""
    return dict(p.arrays)


def replace_arrays(p: LayerParams, named: dict[str, np.ndarray]) -> LayerParams:
    """The LayerParams with p's slot ids and the arrays of `named`."""
    return LayerParams(p.slot_ids, named)


class Tape:
    """One stack's tape (see the module docstring), built by `forward_stack`
    before its first layer; `layers` sizes u and loo, and an unmapped slot id
    raises ValueError naming its first edge. Layer l's forward fills u[l] and
    loo[l], appends its input states, aggregate and MLP pre-activations to
    h_in, agg and z, and overwrites the scratch; a backward overwrites the
    scratch and reads the rest, so it may run any number of times."""

    def __init__(self, g: FactorGraph, p: LayerParams, layers: int):
        sl, blocks = g.slots, g.layout.lowrank + g.layout.dense
        rows = np.array([p.slot_rows.get(sid, -1) for sid in sl.ids], dtype=np.intp)
        if np.any(rows < 0):  # ids are in first-appearance order, so the first bad edge is named
            k = np.flatnonzero(rows < 0)[0]
            raise ValueError(f"factor {g.layout.fac[sl.slot == k][0]}: unmapped slot id {sl.ids[k]!r}")
        self.graph, self.params = g, p
        # per slot group, the rows of p's slot arrays of its slots, and those rows of each
        self.rows = tuple(rows[s] for s, _ in sl.groups)
        self.w_in, self.w_out = (tuple(p.arrays[name][r] for r in self.rows)
                                 for name in ("slot/w_in", "slot/w_out"))
        num_edges, d_h, rank = sl.var.size, p.d_h, p.rank
        # (E, R) per layer: u in block order, W_in^T h of each edge's node, and
        # loo in slot order, the Hadamard product of the other slots' u in its factor
        self.u, self.loo = np.empty((2, layers, num_edges, rank))
        # scratch: the forward's state gather, later its messages, and u in slot
        # order, later loo in block order; the backward's dmsg, dloo and du
        self.states, self.dmsg = np.empty((2, num_edges, d_h))
        self.u_slots, self.dloo, self.du = np.empty((3, num_edges, rank))
        # every view the layers take, per slot group or factor block
        self.group_rows = _views(sl.groups, self.states, self.u_slots, self.dmsg, self.dloo)
        self.block_rows = _views(blocks, self.u_slots, self.du)
        self.u_blocks = [[x for (x,) in _views(blocks, u)] for u in self.u]
        self.loo_groups = [[x for (x,) in _views(sl.groups, loo)] for loo in self.loo]
        self.h_in, self.agg, self.z = [], [], []


def forward_stack(
    h: HiddenStates, g: FactorGraph, p: LayerParams, layers: int
) -> tuple[HiddenStates, Tape]:
    """`layers` (an integer >= 0) message-passing layers with shared
    parameters; returns the new states and the stack's tape.

    Deterministic: repeated calls on identical inputs are bitwise equal.
    At any layer count, states not of shape (num_vars, d_h), an unmapped
    slot id or a dense factor without slot ids raise ValueError; non-finite
    input states to a layer, or a non-finite message, raise
    FloatingPointError.
    """
    layers = _integer(layers, "layers", 0)
    values = h.values
    if values.shape != (g.num_vars, p.d_h):
        raise ValueError(f"hidden states have shape {values.shape}, expected {(g.num_vars, p.d_h)}")
    tape = Tape(g, p, layers)
    lay, sl, w = g.layout, g.slots, p.arrays
    msg, u_slots = tape.states, tape.u_slots
    for layer in range(layers):
        if not np.all(np.isfinite(values)):
            raise FloatingPointError("non-finite input hidden states")
        np.take(values, sl.var, axis=0, out=msg, mode="clip")
        # overflow shows as the non-finite message below, not as numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            for w_in, (x, out, _, _) in zip(tape.w_in, tape.group_rows):
                np.matmul(x, w_in, out=out)  # (S_c, c, d_h) @ (S_c, d_h, R)
            np.take(u_slots, sl.to_blocks, axis=0, out=tape.u[layer], mode="clip")
            for x, (out, _) in zip(tape.u_blocks[layer], tape.block_rows):
                out[...] = leave_one_out(x)
            np.take(u_slots, sl.from_blocks, axis=0, out=tape.loo[layer], mode="clip")
            for w_out, x, (out, _, _, _) in zip(tape.w_out, tape.loo_groups[layer], tape.group_rows):
                np.matmul(x, w_out.transpose(0, 2, 1), out=out)
            if not np.isfinite(msg.sum()):  # a finite sum may overflow, so the rows decide
                bad = np.flatnonzero(~np.isfinite(msg).all(axis=1))
                if bad.size:
                    e = sl.edges[bad].min()
                    raise FloatingPointError(
                        f"non-finite message from factor {lay.fac[e]} into node {lay.var[e]}")
        agg = np.zeros_like(values)
        for vs, e in sl.buckets:
            agg[vs] = msg[e].sum(axis=0)  # each column in edge order

        z = agg @ w["mlp/w1"].T
        z += w["mlp/b1"]
        out = np.maximum(z, 0.0) @ w["mlp/w2"].T
        out += w["mlp/b2"]
        out += values
        tape.h_in.append(values)
        tape.agg.append(agg)
        tape.z.append(z)
        values = out
    return HiddenStates(values), tape


def backward_stack(tape: Tape, upstream: np.ndarray, grads: dict[str, np.ndarray]) -> np.ndarray:
    """Exact reverse-mode gradients of the stack that recorded `tape`; returns
    the gradient w.r.t. its input states (`upstream` itself for no layers).

    `upstream` is the loss gradient w.r.t. the stack's output states. The
    parameter gradients of every layer are added in place into `grads`, the
    caller's table keyed like named_arrays; each slot adds into its row. The
    gradient w.r.t. u_l sums dloo_k times the product over the slots other
    than k and l, for k != l, in one `leave_one_out_tangent` pass (no
    division by possibly-zero factors). Overflow shows as non-finite
    values, not as numpy warnings. A tape may be read any number of times.
    """
    g, w = tape.graph, tape.params.arrays
    upstream = _float_array(upstream, "upstream gradient", copy=False)
    shape = (g.num_vars, tape.params.d_h)
    if upstream.shape != shape:
        raise ValueError(f"upstream gradient shape {upstream.shape} != states shape {shape}")
    sl, dmsg, dloo, du = g.slots, tape.dmsg, tape.dloo, tape.du
    with np.errstate(over="ignore", invalid="ignore"):
        for layer in reversed(range(len(tape.z))):
            z = tape.z[layer]
            grads["mlp/b2"] += upstream.sum(axis=0)
            grads["mlp/w2"] += upstream.T @ np.maximum(z, 0.0)
            dz = (upstream @ w["mlp/w2"]) * (z > 0)
            grads["mlp/b1"] += dz.sum(axis=0)
            grads["mlp/w1"] += dz.T @ tape.agg[layer]
            np.take(dz @ w["mlp/w1"], sl.var, axis=0, out=dmsg, mode="clip")
            del dz  # so that no two layers' dz are alive at once
            for r, w_out, loo, (_, _, dm, out) in zip(tape.rows, tape.w_out, tape.loo_groups[layer],
                                                      tape.group_rows):
                grads["slot/w_out"][r] += dm.transpose(0, 2, 1) @ loo
                np.matmul(dm, w_out, out=out)
            # in block order, each block's du overwrites the dloo it was computed from
            np.take(dloo, sl.to_blocks, axis=0, out=du, mode="clip")
            for x, (_, t) in zip(tape.u_blocks[layer], tape.block_rows):
                t[...] = leave_one_out_tangent(x, t)
            # dloo now holds du in slot order, and dmsg the state gather, then
            # group by group the gradient w.r.t. each edge's state
            np.take(du, sl.from_blocks, axis=0, out=dloo, mode="clip")
            np.take(tape.h_in[layer], sl.var, axis=0, out=dmsg, mode="clip")
            for r, w_in, (_, _, x, d_u) in zip(tape.rows, tape.w_in, tape.group_rows):
                grads["slot/w_in"][r] += x.transpose(0, 2, 1) @ d_u
                np.matmul(d_u, w_in.transpose(0, 2, 1), out=x)
            upstream = upstream.copy()  # residual path
            for vs, e in sl.buckets:
                upstream[vs] += dmsg[e].sum(axis=0)
    return upstream


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
) -> tuple[dict[str, np.ndarray], AdamState]:
    t = state.step + 1
    new, m, v = {}, {}, {}
    for k, arr in named.items():
        gk = grads[k]
        m[k] = BETA1 * state.m[k] + (1.0 - BETA1) * gk
        v[k] = BETA2 * state.v[k] + (1.0 - BETA2) * gk * gk
        m_hat = m[k] / (1.0 - BETA1**t)
        v_hat = v[k] / (1.0 - BETA2**t)
        new[k] = arr - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
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
    optimizer state it was given, and loss NaN. An empty batch, a graph
    without nodes, an `lr` that is not a finite real >= 0, a target that is
    not out_dim real numbers (named by its position in the batch), or an
    opt_state whose m or v lacks a name of p's table, holds another or
    shapes a moment unlike its array (the first such moment is named)
    raises ValueError before any forward pass; so does, in the forward
    pass, anything `forward_stack` refuses with ValueError. Returns
    (params, opt_state, loss).
    """
    if not batch or any(g.num_vars == 0 for g, _, _ in batch):
        raise ValueError("train_step needs a non-empty batch of non-empty graphs")
    if isinstance(lr, bool) or not isinstance(lr, (int, float, np.integer, np.floating)) \
            or not 0 <= lr < np.inf:
        raise ValueError(f"lr must be a finite real >= 0, got {lr!r}")
    out_dim, targets = p.arrays["readout/b"].size, []
    for i, (_, _, target) in enumerate(batch):
        target = _float_array(target, f"batch[{i}] target", copy=False)
        if target.size != out_dim:
            raise ValueError(f"batch[{i}] target has size {target.size}, "
                             f"expected out_dim {out_dim}")
        targets.append(target.reshape(out_dim))
    named = named_arrays(p)
    for key in ("m", "v") if opt_state is not None else ():
        moments = getattr(opt_state, key)
        for name in dict.fromkeys([*named, *moments]):  # table order, then the extras
            if name not in moments or name not in named:
                raise ValueError(f"opt_state.{key} {'lacks' if name in named else 'holds'} {name!r}")
            if np.shape(moments[name]) != named[name].shape:
                raise ValueError(f"opt_state.{key}[{name!r}] has shape {np.shape(moments[name])}, "
                                 f"expected {named[name].shape}")
    grads = {k: np.zeros_like(a) for k, a in named.items()}
    total_loss = 0.0
    for (g, h0, _), target in zip(batch, targets):
        try:
            h_t, tape = forward_stack(h0, g, p, layers)
        except FloatingPointError:
            return p, opt_state, float("nan")
        mean = node_mean(h_t.values)  # readout(h_t, p), with its mean taken once
        resid = named["readout/w"] @ mean + named["readout/b"] - target
        total_loss += float(np.mean(np.abs(resid)))
        dpred = np.sign(resid) / resid.size
        grads["readout/w"] += np.outer(dpred, mean)
        grads["readout/b"] += dpred
        dmean = named["readout/w"].T @ dpred
        n_nodes = h_t.values.shape[0]
        backward_stack(tape, np.tile(dmean / n_nodes, (n_nodes, 1)), grads)
        del tape  # so that one graph's tape is alive at a time
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
    key, an array by its named_arrays name, a moment as optimizer/<m|v>/<name>):
    a d_h, rank, optimizer/step, slot list, array or moment outside the input
    contract of `lrbp.tensors`, or an array or moment not of its `LayerParams`
    shape for the file's slot count, d_h and rank and the lengths of mlp/b1
    and readout/b. A checkpoint with one array per slot lacks slot/w_in."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)

    def entry(convert, node, key, prefix=""):
        if not isinstance(node, dict) or key not in node:
            raise ValueError(f"checkpoint is missing {prefix}{key}")
        try:
            return convert(node[key])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"checkpoint field {prefix}{key}: {exc}") from exc

    arr = partial(_float_array, field="value", copy=False)
    integer = partial(_integer, field="value")  # 2.5 or true is refused, not truncated

    def ids(x):
        if not isinstance(x, list):
            raise TypeError("expected a list of slot id strings")
        return tuple(_slot_ids(x, "value", unique=True))

    d_h, rank = entry(integer, doc, "d_h"), entry(integer, doc, "rank")
    slot_ids = entry(ids, doc, "slots")
    arrays = entry(dict, doc, "arrays")
    d_mlp, out_dim = entry(arr, arrays, "mlp/b1").size, entry(arr, arrays, "readout/b").size
    want = _shapes(len(slot_ids), d_h, rank, d_mlp, out_dim)

    def table(node, prefix, what):
        return {name: _shaped(entry(arr, node, name, prefix), shape, f"checkpoint {what}{name}")
                for name, shape in want.items()}

    p = LayerParams(slot_ids, table(arrays, "", "array "))
    opt = doc.get("optimizer")
    if opt is None:
        return p, None
    moments = [table(entry(dict, opt, k, "optimizer/"), f"optimizer/{k}/", f"optimizer {k} of ")
               for k in "mv"]
    return p, AdamState(entry(partial(integer, minimum=0), opt, "step", "optimizer/"), *moments)
