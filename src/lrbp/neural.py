"""Neuralized low-rank message passing over a factor graph.

Node states are unconstrained real vectors. One layer computes, per node i,
the sum over its factors of W_out[slot(a,i)] @ hadamard_{j in scope(a), j != i}
(W_in[slot(a,j)]^T h_j), feeds the sum through a one-hidden-layer ReLU MLP,
and adds the result to the previous state (residual connection). Each
parameter slot carries a doubled pair of matrices: W_in transforms before the
Hadamard product, W_out after.

A layer runs on flat edge arrays in the engine's edge order (edge offs[a] + k
is slot k of factor a), with one matmul per used slot and the shared
`tensors.leave_one_out` kernel per arity group. Its hand-derived backward takes
the leave-two-out products from the same kernel, never by division. Parameters
are read-only during a step; all update functions return fresh structures.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .graph import FactorGraph, LowRankPayload
from .tensors import leave_one_out


@dataclass(frozen=True)
class HiddenStates:
    """Per-node real state vectors (num_nodes, d_h) at layer index t."""

    values: np.ndarray
    t: int = 0

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise ValueError(f"hidden states must be 2-d, got shape {v.shape}")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class SlotPair:
    """Doubled weight set of one parameter slot: both are d_h x R."""

    w_in: np.ndarray
    w_out: np.ndarray


@dataclass(frozen=True)
class LayerParams:
    d_h: int
    rank: int
    slots: dict[str, SlotPair]
    w1: np.ndarray  # (d_mlp, d_h)
    b1: np.ndarray  # (d_mlp,)
    w2: np.ndarray  # (d_h, d_mlp)
    b2: np.ndarray  # (d_h,)
    w_ro: np.ndarray  # (out_dim, d_h) readout affine map
    b_ro: np.ndarray  # (out_dim,)


@dataclass
class GradientBundle:
    """Gradients keyed like named_arrays(params), plus input-state grads."""

    by_name: dict[str, np.ndarray]
    input_states: np.ndarray


def factor_slots(g: FactorGraph, a: int) -> tuple[str, ...]:
    """Slot ids of factor a: explicit slot_ids, else derived from param_id."""
    binding = g.factors[a]
    if binding.slot_ids is not None:
        return binding.slot_ids
    if not isinstance(binding.payload, LowRankPayload):
        raise ValueError(f"factor {a} has no low-rank payload; cannot derive slots")
    pid = binding.payload.param_id
    return tuple(f"{pid}/{k}" for k in range(len(binding.scope)))


def graph_slot_ids(g: FactorGraph) -> list[str]:
    """All slot ids of a graph in first-appearance order, deduplicated."""
    seen: dict[str, None] = {}
    for a in range(len(g.factors)):
        for sid in factor_slots(g, a):
            seen.setdefault(sid)
    return list(seen)


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
    not depend on the slot ids, and slot k's matrices do not depend on the
    slots after it.
    """
    d_mlp = 2 * d_h if d_mlp is None else d_mlp
    slot_rng, mlp_rng, ro_rng = (
        np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(3)
    )
    s = 1.0 / np.sqrt(rank)
    slots = {
        sid: SlotPair(
            slot_rng.uniform(-s, s, size=(d_h, rank)),
            slot_rng.uniform(-s, s, size=(d_h, rank)),
        )
        for sid in slot_ids
    }
    s1 = 1.0 / np.sqrt(d_h)
    s2 = 1.0 / np.sqrt(d_mlp)
    return LayerParams(
        d_h=d_h,
        rank=rank,
        slots=slots,
        w1=mlp_rng.uniform(-s1, s1, size=(d_mlp, d_h)),
        b1=mlp_rng.uniform(-s1, s1, size=d_mlp),
        w2=mlp_rng.uniform(-s2, s2, size=(d_h, d_mlp)),
        b2=mlp_rng.uniform(-s2, s2, size=d_h),
        w_ro=ro_rng.uniform(-s1, s1, size=(out_dim, d_h)),
        b_ro=ro_rng.uniform(-s1, s1, size=out_dim),
    )


def named_arrays(p: LayerParams) -> dict[str, np.ndarray]:
    """Flat name -> array view of all parameters (shared slots appear once)."""
    out = {}
    for sid, pair in p.slots.items():
        out[f"slot/{sid}/w_in"] = pair.w_in
        out[f"slot/{sid}/w_out"] = pair.w_out
    out["mlp/w1"] = p.w1
    out["mlp/b1"] = p.b1
    out["mlp/w2"] = p.w2
    out["mlp/b2"] = p.b2
    out["readout/w"] = p.w_ro
    out["readout/b"] = p.b_ro
    return out


def replace_arrays(p: LayerParams, named: dict[str, np.ndarray]) -> LayerParams:
    slots = {
        sid: SlotPair(named[f"slot/{sid}/w_in"], named[f"slot/{sid}/w_out"])
        for sid in p.slots
    }
    return LayerParams(
        d_h=p.d_h,
        rank=p.rank,
        slots=slots,
        w1=named["mlp/w1"],
        b1=named["mlp/b1"],
        w2=named["mlp/w2"],
        b2=named["mlp/b2"],
        w_ro=named["readout/w"],
        b_ro=named["readout/b"],
    )


def _edges(g: FactorGraph, p: LayerParams):
    """Edge arrays of `g` (edge offs[a] + k is slot k of factor a): the node and
    factor of each edge, (slot id, edges) per used slot and (F, n) edges per
    arity n. Raises on the first slot id that `p` does not map."""
    var, fac, index, slot = [], [], {}, []
    for a, binding in enumerate(g.factors):
        for sid in factor_slots(g, a):
            if sid not in p.slots:
                raise ValueError(f"factor {a}: unmapped slot id {sid!r}")
            slot.append(index.setdefault(sid, len(index)))
        var.extend(binding.scope)
        fac.extend([a] * len(binding.scope))
    var, fac, slot = (np.array(x, dtype=np.intp) for x in (var, fac, slot))
    slots = [(sid, np.flatnonzero(slot == s)) for sid, s in index.items()]
    arity = np.bincount(fac, minlength=len(g.factors))
    offs = np.cumsum(arity) - arity
    groups = [offs[arity == n, None] + np.arange(n) for n in np.unique(arity)]
    return var, fac, slots, groups


@dataclass
class Tape:
    """Forward intermediates needed by the hand-derived backward pass."""

    params: LayerParams
    h_in: np.ndarray
    edges: tuple  # the layout of _edges
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

    edges = var, fac, slots, groups = _edges(g, p)
    u = np.empty((var.size, p.rank))
    loo = np.empty_like(u)
    msg = np.empty((var.size, p.d_h))
    # overflow shows as the non-finite message below, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for sid, e in slots:
            u[e] = values[var[e]] @ p.slots[sid].w_in
        for ids in groups:
            loo[ids] = leave_one_out(u[ids], axis=1)
        for sid, e in slots:
            msg[e] = loo[e] @ p.slots[sid].w_out.T
    bad = np.flatnonzero(~np.isfinite(msg).all(axis=1))
    if bad.size:
        raise FloatingPointError(
            f"non-finite message from factor {fac[bad[0]]} into node {var[bad[0]]}"
        )
    agg = np.zeros_like(values)
    np.add.at(agg, var, msg)

    z = agg @ p.w1.T + p.b1
    r = np.maximum(z, 0.0)
    out = r @ p.w2.T + p.b2
    new_values = values + out
    tape = Tape(params=p, h_in=values, edges=edges, u=u, loo=loo, agg=agg, z=z, r=r)
    return HiddenStates(new_values, h.t + 1), tape


def lrbp_backward(tape: Tape, upstream: np.ndarray) -> GradientBundle:
    """Exact reverse-mode gradients of one layer.

    `upstream` is the loss gradient w.r.t. the layer's output states. The
    gradient of loo_k w.r.t. u_l (l != k) is the product over the slots other
    than k and l, taken by the same leave-one-out kernel with u_k set to 1
    (no division by possibly-zero factors). Shared slot ids accumulate.
    """
    p = tape.params
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != tape.h_in.shape:
        raise ValueError(
            f"upstream gradient shape {upstream.shape} != states shape {tape.h_in.shape}"
        )
    grads = {name: np.zeros_like(arr) for name, arr in named_arrays(p).items()}

    # MLP backward
    grads["mlp/b2"] += upstream.sum(axis=0)
    grads["mlp/w2"] += upstream.T @ tape.r
    dz = (upstream @ p.w2) * (tape.z > 0)
    grads["mlp/b1"] += dz.sum(axis=0)
    grads["mlp/w1"] += dz.T @ tape.agg
    dagg = dz @ p.w1

    var, _, slots, groups = tape.edges
    dmsg = dagg[var]
    dloo = np.empty_like(tape.loo)
    for sid, e in slots:
        grads[f"slot/{sid}/w_out"] += dmsg[e].T @ tape.loo[e]
        dloo[e] = dmsg[e] @ p.slots[sid].w_out
    du = np.empty_like(tape.u)
    for ids in groups:
        diag = np.arange(ids.shape[1])
        # pairs[f, k, l] = product over the slots m != k, l of factor f
        pairs = np.repeat(tape.u[ids][:, None], diag.size, axis=1)
        pairs[:, diag, diag] = 1.0
        pairs = leave_one_out(pairs, axis=2)
        pairs[:, diag, diag] = 0.0
        du[ids] = np.einsum("fkr,fklr->flr", dloo[ids], pairs)
    dh_edge = np.empty_like(dmsg)
    for sid, e in slots:
        grads[f"slot/{sid}/w_in"] += tape.h_in[var[e]].T @ du[e]
        dh_edge[e] = du[e] @ p.slots[sid].w_in.T
    dh = upstream.copy()  # residual path
    np.add.at(dh, var, dh_edge)
    return GradientBundle(grads, dh)


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


def backward_stack(tapes: list[Tape], upstream: np.ndarray) -> GradientBundle:
    """Backward through a stack of shared-parameter layers, summing grads."""
    total: dict[str, np.ndarray] | None = None
    up = upstream
    for tape in reversed(tapes):
        bundle = lrbp_backward(tape, up)
        if total is None:
            total = bundle.by_name
        else:
            total = {k: total[k] + bundle.by_name[k] for k in total}
        up = bundle.input_states
    assert total is not None
    return GradientBundle(total, up)


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
    """
    rng = np.random.default_rng(seed)
    h0 = HiddenStates(rng.standard_normal((g.num_vars, p.d_h)))

    def output_and_masks():
        out, tapes = forward_stack(h0, g, p, layers)
        return out.values, [t.z > 0 for t in tapes]

    h_t, tapes = forward_stack(h0, g, p, layers)
    bundle = backward_stack(tapes, 2.0 * h_t.values)

    worst = 0.0
    worst_name = None
    checked = 0
    skipped = 0
    for name, arr in named_arrays(p).items():
        flat = arr.ravel()
        ana_flat = bundle.by_name[name].ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            out_p, masks_p = output_and_masks()
            flat[idx] = orig - eps
            out_m, masks_m = output_and_masks()
            flat[idx] = orig
            if any(not np.array_equal(mp, mm) for mp, mm in zip(masks_p, masks_m)):
                skipped += 1
                continue
            numeric = float(np.sum((out_p - out_m) * (out_p + out_m))) / (2.0 * eps)
            analytic = ana_flat[idx]
            rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-3)
            checked += 1
            if rel > worst:
                worst = rel
                worst_name = f"{name}[{idx}]"
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
    return p.w_ro @ node_mean(h.values) + p.b_ro


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
    gradients accumulate over the batch in order. A non-finite loss aborts
    the step with parameters unchanged and returns the optimizer state it was
    given. A `FloatingPointError` from the forward pass of any graph (a
    non-finite message or input) counts as a non-finite loss: the loss is
    NaN. Returns (params, opt_state, loss).
    """
    named = named_arrays(p)
    grads = {k: np.zeros_like(a) for k, a in named.items()}
    total_loss = 0.0
    for g, h0, target in batch:
        target = np.atleast_1d(np.asarray(target, dtype=np.float64))
        try:
            h_t, tapes = forward_stack(h0, g, p, layers)
        except FloatingPointError:
            return p, opt_state, float("nan")
        mean = node_mean(h_t.values)  # the reduction readout() uses
        pred = p.w_ro @ mean + p.b_ro
        resid = pred - target
        total_loss += float(np.mean(np.abs(resid)))
        dpred = np.sign(resid) / resid.size
        grads["readout/w"] += np.outer(dpred, mean)
        grads["readout/b"] += dpred
        dmean = p.w_ro.T @ dpred
        n_nodes = h_t.values.shape[0]
        upstream = np.tile(dmean / n_nodes, (n_nodes, 1))
        bundle = backward_stack(tapes, upstream)
        for k in grads:
            grads[k] += bundle.by_name[k]
    scale = 1.0 / len(batch)
    total_loss *= scale
    if not np.isfinite(total_loss):
        return p, opt_state, total_loss
    if opt_state is None:
        opt_state = adam_init(named)
    grads = {k: v * scale for k, v in grads.items()}
    new_named, new_state = adam_step(named, grads, opt_state, lr)
    return replace_arrays(p, new_named), new_state, total_loss


def save_checkpoint(p: LayerParams, path, opt_state: AdamState | None = None) -> None:
    """JSON checkpoint; float round-trip is exact."""
    doc = {
        "d_h": p.d_h,
        "rank": p.rank,
        "slots": {
            sid: {"w_in": sp.w_in.tolist(), "w_out": sp.w_out.tolist()}
            for sid, sp in p.slots.items()
        },
        "mlp": {
            "w1": p.w1.tolist(),
            "b1": p.b1.tolist(),
            "w2": p.w2.tolist(),
            "b2": p.b2.tolist(),
        },
        "readout": {"w": p.w_ro.tolist(), "b": p.b_ro.tolist()},
        "optimizer": None
        if opt_state is None
        else {
            "step": opt_state.step,
            "m": {k: v.tolist() for k, v in opt_state.m.items()},
            "v": {k: v.tolist() for k, v in opt_state.v.items()},
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_checkpoint(path) -> tuple[LayerParams, AdamState | None]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    arr = lambda x: np.asarray(x, dtype=np.float64)  # noqa: E731
    slots = {
        sid: SlotPair(arr(spec["w_in"]), arr(spec["w_out"]))
        for sid, spec in doc["slots"].items()
    }
    p = LayerParams(
        d_h=int(doc["d_h"]),
        rank=int(doc["rank"]),
        slots=slots,
        w1=arr(doc["mlp"]["w1"]),
        b1=arr(doc["mlp"]["b1"]),
        w2=arr(doc["mlp"]["w2"]),
        b2=arr(doc["mlp"]["b2"]),
        w_ro=arr(doc["readout"]["w"]),
        b_ro=arr(doc["readout"]["b"]),
    )
    opt = None
    if doc.get("optimizer") is not None:
        spec = doc["optimizer"]
        opt = AdamState(
            int(spec["step"]),
            {k: arr(v) for k, v in spec["m"].items()},
            {k: arr(v) for k, v in spec["v"].items()},
        )
    return p, opt
