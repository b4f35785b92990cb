"""Bipartite variable/factor graph structure and its JSON file format.

Factor scopes are ordered: the k-th scope position binds weights[k] of a
low-rank payload. Low-rank payloads live in a read-only parameter table keyed
by id and may be shared across factors. Graphs are immutable after build and
safe for concurrent read: a graph holds read-only copies of its unary, its CP
weights and its dense tables.

Edge order: factor a's edges follow all edges of factors 0..a-1, one per slot
in scope order; its k-th edge joins it to variable scope[k]. Both LBP and the
neural layer name edges by this order, but keep their edge arrays in the
order of the phase that writes them: the bucket and block orders of
`EdgeLayout`, and the neural layer's slot order of `SlotIndex`.
`build_graph` builds `FactorGraph.layout` with the graph, from the facts its
validation reads: the edge arrays, the factor blocks that LBP and the neural
layer batch their kernels over, the degree buckets, the graph's only
variable-to-factor adjacency, and LBP's two message orders. What only one
consumer reads is built on its first use, once per graph: `cp_blocks`, the CP
weights of LBP's low-rank blocks, and `slots`, the neural layer's slot index.
Both are deterministic in the frozen factors and the read-only params, so
concurrent first reads are safe: at worst two threads build equal copies.
"""
from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .tensors import CPFactor, _check_capacity, _float_array, _integer, _shaped, _slot_ids, cp_expand


class GraphError(ValueError):
    """Graph construction or file-format violation."""


@dataclass(frozen=True, eq=False)  # identity equality: the field holds an array
class DensePayload:
    """An explicit potential table, held as its own read-only C-contiguous
    float64 copy of the caller's array. `build_graph` checks its shape."""

    table: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "table", _read_only(_float_array(self.table, "table")))


@dataclass(frozen=True)
class LowRankPayload:
    param_id: str


@dataclass(frozen=True)
class FactorBinding:
    """One factor: an ordered variable scope plus its potential payload.

    slot_ids optionally names a per-position parameter key for each scope
    slot; the neural layer and the sharing-scheme builders use these, the
    classical engine ignores them. Raises GraphError for a scope entry that
    is not an integer, or slot ids that are a string or hold a non-string.
    """

    scope: tuple[int, ...]
    payload: DensePayload | LowRankPayload
    slot_ids: tuple[str, ...] | None = None

    def __post_init__(self):
        scope = tuple(_integer(v, "scope entry", error=GraphError) for v in self.scope)
        object.__setattr__(self, "scope", scope)
        if self.slot_ids is not None:
            slot_ids = _slot_ids(self.slot_ids, "slot ids", error=GraphError)
            if len(slot_ids) != len(scope):
                raise GraphError(f"slot_ids length {len(slot_ids)} != scope length {len(scope)}")
            object.__setattr__(self, "slot_ids", slot_ids)


@dataclass(frozen=True, eq=False)  # identity equality, as EdgeLayout: fields hold arrays
class FactorGraph:
    """A frozen factor graph; `build_graph` makes one, with its layout."""

    num_vars: int
    cardinality: int
    factors: tuple[FactorBinding, ...]
    params: Mapping[str, CPFactor]  # read-only
    unary: np.ndarray  # read-only (num_vars, d); all ones when the caller gave none
    layout: EdgeLayout

    @cached_property
    def cp_blocks(self) -> tuple[np.ndarray, ...]:
        """The read-only, slot-major (n, F, d, R) CP weights of each of the
        layout's `lowrank` blocks, built on first use: column f holds the
        weights of the block's f-th factor, gathered from the params by one
        concatenate. Only LBP reads these, so the neural layer never builds
        them."""
        d, params, factors = self.cardinality, self.params, self.factors
        return tuple(_read_only(np.concatenate([params[factors[a].payload.param_id].weights
                                                for a in ids.tolist()], axis=1)
                                .reshape(*e.shape, d, -1))
                     for ids, e in self.layout.lowrank)

    @cached_property
    def slots(self) -> SlotIndex:
        """The neural layer's slot index, built when it first asks. Raises as
        `factor_slots` does."""
        index: dict[str, int] = {}
        slot = np.array([index.setdefault(sid, len(index)) for a in range(len(self.factors))
                         for sid in factor_slots(self, a)], dtype=np.intp)
        # a stable sort keeps each slot's edges in edge order
        # item-major views of the slot-major blocks, for the batched matmul
        groups = tuple((s, e.T) for s, e in
                       _groups_by_size(np.bincount(slot), np.argsort(slot, kind="stable")))
        lay, edges = self.layout, _raveled(groups)
        rows = _positions(edges)
        return SlotIndex(
            ids=tuple(index),
            slot=_read_only(slot),
            groups=groups,
            edges=edges,
            var=_read_only(lay.var[edges]),
            to_blocks=_read_only(rows[lay.block_edges]),
            from_blocks=_read_only(_positions(lay.block_edges)[edges]),
            buckets=tuple((vs, _read_only(rows[e])) for vs, e in lay.buckets),
        )


@dataclass(frozen=True, eq=False)
class EdgeLayout:
    """The edges of one graph, in the edge order of the module docstring.
    Every array is read-only, since all calls on the graph share them.

    The factor blocks partition the factors into the batches of the message
    kernels: `lowrank` has one block per CP (arity, rank), `dense` one per
    arity, each in order of arity, then rank. Their edge blocks and those of
    `buckets` are slot-major and C-contiguous: row k holds slot k of every
    factor (k-th edge of every variable), so a gather `x[edges]` yields one
    contiguous slab per slot and leave-one-out products run along axis 0.

    LBP keeps variable-to-factor messages in bucket order, the buckets' edge
    blocks raveled in turn, and factor-to-variable messages in block order,
    the `lowrank` then the `dense` edge blocks raveled in turn. So each block
    or bucket owns one slice of rows, which reads as its slot-major gather,
    and a half-sweep reads the other family through one gather, `to_buckets`
    or `to_blocks`."""

    var: np.ndarray  # (E,) variable of each edge
    fac: np.ndarray  # (E,) factor of each edge
    lowrank: tuple  # ((F,) factors, (n, F) edges) per CP (arity n, rank R), columns in factor order
    dense: tuple  # ((F,) factors, (n, F) edges) per dense arity n, columns in factor order
    buckets: tuple  # ((V,) variables, (D, V) edges) per degree D, each column in factor order
    bucket_edges: np.ndarray  # (E,) edge of each row in bucket order
    block_edges: np.ndarray  # (E,) edge of each row in block order
    to_buckets: np.ndarray  # (E,) block-order row of each bucket-order row
    to_blocks: np.ndarray  # (E,) bucket-order row of each block-order row


@dataclass(frozen=True, eq=False)
class SlotIndex:
    """The parameter slots of one graph's edges. Slots with the same edge
    count c form one group, so that the neural layer handles a group with one
    batched matmul over (S_c, c, d_h) rows. Every array is read-only.

    The neural layer keeps the arrays its matmuls write in slot order, the
    groups' edge blocks raveled in turn, so that each group owns one slice of
    rows, which reads as its (S_c, c) item-major block. It reaches the
    layout's block order through `to_blocks` and `from_blocks`, and each
    degree bucket's rows through `buckets`."""

    ids: tuple[str, ...]  # (S,) slot ids in first-appearance order
    slot: np.ndarray  # (E,) index into `ids` of each edge's slot
    groups: tuple  # ((S_c,) slots, (S_c, c) edges) per edge count c, each row in edge order
    edges: np.ndarray  # (E,) edge of each row in slot order
    var: np.ndarray  # (E,) variable of each row in slot order
    to_blocks: np.ndarray  # (E,) slot-order row of each block-order row
    from_blocks: np.ndarray  # (E,) block-order row of each slot-order row
    buckets: tuple  # ((V,) variables, (D, V) slot-order rows) per degree bucket of the layout


def _edge_layout(num_vars: int, arity: np.ndarray, var: np.ndarray, rank: np.ndarray) -> EdgeLayout:
    """The EdgeLayout of factors of these arities and CP ranks (0 for a dense
    factor), whose scopes hold the variables `var`, raveled in edge order."""
    # a block per (arity, rank)
    blocks = _groups_by_size(arity, np.arange(var.size),
                             key=arity * (rank.max(initial=0) + 1) + rank)
    lowrank = tuple((ids, e) for ids, e in blocks if rank[ids[0]])
    dense = tuple((ids, e) for ids, e in blocks if not rank[ids[0]])
    # a stable sort keeps each variable's edges in factor order
    buckets = _groups_by_size(np.bincount(var, minlength=num_vars), np.argsort(var, kind="stable"))
    bucket_edges, block_edges = _raveled(buckets), _raveled(lowrank + dense)
    return EdgeLayout(
        var=_read_only(var),
        fac=_read_only(np.repeat(np.arange(arity.size), arity)),
        lowrank=lowrank,
        dense=dense,
        buckets=buckets,
        bucket_edges=bucket_edges,
        block_edges=block_edges,
        to_buckets=_read_only(_positions(block_edges)[bucket_edges]),
        to_blocks=_read_only(_positions(bucket_edges)[block_edges]),
    )


def _groups_by_size(sizes: np.ndarray, edges: np.ndarray, key: np.ndarray | None = None) -> tuple:
    """((G,) items, (n, G) edges) per distinct integer key, in increasing
    order, slot-major and C-contiguous; item i owns the next sizes[i] entries
    of `edges`, which form its column of the block. The key defaults to the
    size; the items of one key must have one size n."""
    key = sizes if key is None else key
    starts = np.cumsum(sizes) - sizes
    groups = []
    for k in np.unique(key):
        ids = np.flatnonzero(key == k)
        n = sizes[ids[0]]
        groups.append((_read_only(ids), _read_only(edges[np.arange(n)[:, None] + starts[ids]])))
    return tuple(groups)


def _raveled(groups: tuple) -> np.ndarray:
    """The edge blocks of `groups` raveled in turn, as one read-only (E,) array."""
    return _read_only(np.concatenate([np.empty(0, np.intp), *(e.ravel() for _, e in groups)]))


def _views(groups: tuple, *arrays: np.ndarray) -> list[list[np.ndarray]]:
    """Per group, each (E, ...) array's rows of the group's edge block, in an
    order that ravels the blocks in turn, as a view of the block's shape plus
    the array's trailing axes."""
    views, lo = [], 0
    for _, e in groups:
        views.append([x[lo:lo + e.size].reshape(*e.shape, *x.shape[1:]) for x in arrays])
        lo += e.size
    return views


def _positions(order: np.ndarray) -> np.ndarray:
    """The inverse of the permutation `order`: the row of each edge in it."""
    pos = np.empty_like(order)
    pos[order] = np.arange(order.size)
    return pos


def _read_only(x: np.ndarray) -> np.ndarray:
    x.flags.writeable = False
    return x


def factor_slots(g: FactorGraph, a: int) -> tuple[str, ...]:
    """Slot ids of factor a: explicit slot_ids, else `param_id/k` for scope
    position k. A dense factor without slot_ids has no slots and raises."""
    binding = g.factors[a]
    if binding.slot_ids is not None:
        return binding.slot_ids
    if not isinstance(binding.payload, LowRankPayload):
        raise ValueError(f"factor {a} has no low-rank payload; cannot derive slots")
    pid = binding.payload.param_id
    return tuple(f"{pid}/{k}" for k in range(len(binding.scope)))


def build_graph(
    num_vars: int,
    cardinality: int,
    bindings,
    unary=None,
    params: Mapping[str, CPFactor] | None = None,
) -> FactorGraph:
    """Validate bindings and freeze the graph, with its edge layout.

    Factor ordering is preserved from the input. The graph keeps a read-only
    copy of `unary`, all ones when it is None, and a read-only view of a copy
    of `params`, so later changes to the caller's objects do not reach it.
    Raises GraphError for a num_vars or cardinality that is not an integer,
    or below 0 and 2, for a unary that is not a (num_vars, cardinality) array
    of numbers (with no variables, an empty list counts as one), for a params
    value that is not a CPFactor, naming its id, and, with the offending
    factor index, for out-of-range variables, duplicate variables in one
    scope, or payload shape mismatches.
    """
    num_vars = _integer(num_vars, "num_vars", 0, error=GraphError)
    cardinality = _integer(cardinality, "cardinality", 2, error=GraphError)
    params = MappingProxyType(dict(params) if params else {})
    for pid, cp in params.items():
        if not isinstance(cp, CPFactor):
            raise GraphError(f"param {pid!r}: expected a CPFactor, got {type(cp).__name__}")
    bindings = tuple(bindings)

    # what the layout reads: each factor's arity and CP rank (0 for a dense
    # one) and each edge's variable
    arity, rank, var = [], [], []
    for a, binding in enumerate(bindings):
        scope = binding.scope
        if not scope:
            raise GraphError(f"factor {a}: empty scope")
        if len(set(scope)) != len(scope):
            raise GraphError(f"factor {a}: duplicate variable in scope {scope}")
        for v in scope:
            if not 0 <= v < num_vars:
                raise GraphError(f"factor {a}: variable {v} out of range [0, {num_vars})")
        payload = binding.payload
        if isinstance(payload, DensePayload):
            want = (cardinality,) * len(scope)
            if payload.table.shape != want:
                raise GraphError(
                    f"factor {a}: dense payload shape {payload.table.shape}, expected {want}"
                )
            rank.append(0)
        elif isinstance(payload, LowRankPayload):
            if payload.param_id not in params:
                raise GraphError(f"factor {a}: unknown param_id {payload.param_id!r}")
            cp = params[payload.param_id]
            if cp.arity != len(scope):
                raise GraphError(
                    f"factor {a}: low-rank arity {cp.arity} != scope length {len(scope)}"
                )
            if cp.cardinality != cardinality:
                raise GraphError(
                    f"factor {a}: low-rank cardinality {cp.cardinality} != {cardinality}"
                )
            rank.append(cp.rank)
        else:
            raise GraphError(f"factor {a}: unknown payload type {type(payload).__name__}")
        arity.append(len(scope))
        var.extend(scope)

    try:
        unary = _float_array(np.ones((num_vars, cardinality)) if unary is None else unary, "unary")
        unary = _shaped(unary, (num_vars, cardinality), "unary")
    except ValueError as exc:
        raise GraphError(str(exc)) from exc

    return FactorGraph(
        num_vars=num_vars,
        cardinality=cardinality,
        factors=bindings,
        params=params,
        unary=_read_only(unary),
        layout=_edge_layout(num_vars, np.array(arity, dtype=np.intp),
                            np.array(var, dtype=np.intp), np.array(rank, dtype=np.intp)),
    )


def factor_cp(g: FactorGraph, a: int) -> CPFactor:
    """The CP parameter set of factor `a`; raises for dense payloads."""
    payload = g.factors[a].payload
    if not isinstance(payload, LowRankPayload):
        raise GraphError(f"factor {a} has no low-rank payload")
    return g.params[payload.param_id]


def factor_table(g: FactorGraph, a: int) -> np.ndarray:
    """(d,) * arity table of factor `a`, expanding a low-rank payload if needed."""
    payload = g.factors[a].payload
    if isinstance(payload, DensePayload):
        return payload.table
    return cp_expand(g.params[payload.param_id])


def joint_table(g: FactorGraph) -> tuple[np.ndarray, float]:
    """Full (d,) * num_vars joint potential and its total mass Z.

    The exact-inference oracle: multiplies every factor table (low-rank
    payloads expanded) and the unary potentials over the d**num_vars grid.
    Raises CapacityError past CAPACITY elements and GraphError when Z is 0
    or not finite, and then no NumPy warning.
    """
    d, n = g.cardinality, g.num_vars
    _check_capacity(d, n, f"joint table over {n} variables")
    # a plain product, not np.einsum, which turns a -0.0 product into +0.0
    joint = np.ones((d,) * n)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite Z is refused below
        for i in range(n):
            joint = joint * _on_axes(g.unary[i], (i,), n)
        for a, binding in enumerate(g.factors):
            joint = joint * _on_axes(factor_table(g, a), binding.scope, n)
        z = float(joint.sum())
    if z == 0.0:
        raise GraphError("degenerate distribution: joint table has zero total mass")
    if not np.isfinite(z):
        raise GraphError(f"degenerate distribution: joint table has total mass {z}")
    return joint, z


def _on_axes(table: np.ndarray, scope, n: int) -> np.ndarray:
    """`table` as an n-d array that broadcasts against the joint, its axis k
    on axis scope[k]."""
    missing = [v for v in range(n) if v not in scope]
    return np.expand_dims(np.transpose(table, np.argsort(scope)), missing)


def _payload_to_json(binding: FactorBinding) -> dict:
    payload = binding.payload
    if isinstance(payload, DensePayload):
        return {
            "kind": "dense",
            "shape": list(payload.table.shape),
            "data": payload.table.ravel().tolist(),
        }
    return {"kind": "lowrank", "param_id": payload.param_id}


def save_graph(g: FactorGraph, path) -> None:
    """Write the graph as a single JSON document; round-trip is value-exact.

    The unary is always written, as ones for a graph built without one;
    `load_graph` still reads an absent or null "unary" as ones. The optional
    per-factor "slots" field is an extension carrying slot ids for the neural
    layer; readers that only know the base format can ignore it, and absent
    means null.
    """
    doc = {
        "num_vars": g.num_vars,
        "cardinality": g.cardinality,
        "unary": g.unary.tolist(),
        "factors": [
            {
                "scope": list(b.scope),
                "payload": _payload_to_json(b),
                "slots": list(b.slot_ids) if b.slot_ids is not None else None,
            }
            for b in g.factors
        ],
        "params": {
            pid: {
                "arity": cp.arity,
                "d": cp.cardinality,
                "rank": cp.rank,
                "weights": cp.weights.tolist(),
            }
            for pid, cp in g.params.items()
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_graph(path) -> FactorGraph:
    """Load a graph JSON document written by save_graph (or by hand).

    A malformed document raises GraphError naming the field, param or
    factor at fault."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise GraphError(f"graph file holds a JSON {type(doc).__name__}, expected an object")
    try:
        num_vars, cardinality = doc["num_vars"], doc["cardinality"]  # build_graph checks them
        raw_factors = doc["factors"]
    except KeyError as exc:
        raise GraphError(f"graph file missing required field: {exc}") from exc
    raw_params = {} if doc.get("params") is None else doc["params"]
    if not isinstance(raw_factors, list) or not isinstance(raw_params, dict):
        raise GraphError("graph file: factors must be a list and params an object")

    params = {}
    for pid, spec in raw_params.items():
        try:
            # CPFactor checks the sizes; "d" is checked here so that errors name the key
            params[pid] = CPFactor(spec["arity"], _integer(spec["d"], "d"), spec["rank"],
                                   spec["weights"])
        except (KeyError, TypeError, ValueError) as exc:
            raise GraphError(f"param {pid!r}: {exc}") from exc

    bindings = []
    for a, spec in enumerate(raw_factors):
        try:
            payload_spec = spec["payload"]
            kind = payload_spec["kind"]
            if kind == "dense":
                shape = [_integer(s, "shape entry") for s in payload_spec["shape"]]
                # np.reshape would take a -1 as "infer this axis"
                if min(shape, default=1) < 1:
                    raise ValueError(f"dense shape {shape} has an axis below 1")
                data = _float_array(payload_spec["data"], "data")
                payload = DensePayload(data.reshape(shape))
            elif kind == "lowrank":
                pid = payload_spec["param_id"]
                if not isinstance(pid, str):
                    raise ValueError(f"param_id must be a string, got {pid!r}")
                payload = LowRankPayload(pid)
            else:
                raise ValueError(f"unknown payload kind {kind!r}")
            slots = spec.get("slots")
            if slots is not None and not isinstance(slots, list):
                raise ValueError(f"slots must be null or a list, got {slots!r}")
            bindings.append(FactorBinding(spec["scope"], payload, slots))
        except KeyError as exc:
            raise GraphError(f"factor {a}: missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise GraphError(f"factor {a}: {exc}") from exc

    unary = doc.get("unary")
    return build_graph(num_vars, cardinality, bindings, unary=unary, params=params)
