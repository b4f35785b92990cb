"""Bipartite variable/factor graph structure and its JSON file format.

Factor scopes are ordered: the k-th scope position binds weights[k] of a
low-rank payload. Low-rank payloads live in a read-only parameter table keyed
by id and may be shared across factors. Graphs are immutable after build and
safe for concurrent read: a graph holds read-only copies of its unary and CP
weights. A dense payload holds its table as one read-only (d,) * arity
float64 array. That is a read-only view of the caller's array when it is
already C-contiguous float64, since a copy would double a large table's
memory, so such an array must not be written after construction; any other
input is copied.

Edge order: factor a's edges follow all edges of factors 0..a-1, one per slot
in scope order; its k-th edge joins it to variable scope[k]. The neural layer
keeps one message per edge in this order; LBP keeps its two message families
in the two orders of `EdgeLayout`, each the order in which its half-sweep
writes them, and names edges by this one.
`FactorGraph.layout` holds the edge arrays, the factor blocks that LBP and
the neural layer batch their kernels over, the degree buckets, the graph's
only variable-to-factor adjacency, and LBP's two message orders;
`FactorGraph.slots` holds the neural layer's slot index, its slots grouped by
edge count; `FactorGraph.cp_blocks` holds the CP weights of LBP's low-rank
blocks. Each is built on first use, once per graph, deterministically from
the frozen factors and the read-only params, so concurrent first reads are
safe: at worst two threads build equal copies. The CP stacks that
`cp_blocks` reads are built with the graph.
"""
from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .tensors import CAPACITY, CapacityError, CPFactor, cp_expand


class GraphError(ValueError):
    """Graph construction or file-format violation."""


@dataclass(frozen=True, eq=False)  # identity equality: the field holds an array
class DensePayload:
    """An explicit potential table, a read-only float64 array that may view
    the caller's array (see the module docstring). `build_graph` checks its
    shape."""

    table: np.ndarray

    def __post_init__(self):
        table = np.asarray(self.table, dtype=np.float64, order="C").view()
        table.flags.writeable = False
        object.__setattr__(self, "table", table)


@dataclass(frozen=True)
class LowRankPayload:
    param_id: str


@dataclass(frozen=True)
class FactorBinding:
    """One factor: an ordered variable scope plus its potential payload.

    slot_ids optionally names a per-position parameter key for each scope
    slot; the neural layer and the sharing-scheme builders use these, the
    classical engine ignores them. Raises GraphError for a scope entry that
    is not an integer or a slot id that is not a string.
    """

    scope: tuple[int, ...]
    payload: DensePayload | LowRankPayload
    slot_ids: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "scope", tuple(_integer(v, "scope entry") for v in self.scope))
        if self.slot_ids is not None:
            slot_ids = tuple(self.slot_ids)
            if len(slot_ids) != len(self.scope):
                raise GraphError(
                    f"slot_ids length {len(slot_ids)} != scope length {len(self.scope)}"
                )
            for sid in slot_ids:
                if not isinstance(sid, str):
                    raise GraphError(f"slot ids must be strings, got {sid!r}")
            object.__setattr__(self, "slot_ids", slot_ids)

    @property
    def arity(self) -> int:
        return len(self.scope)


@dataclass(frozen=True, eq=False)  # identity equality, as EdgeLayout: fields hold arrays
class FactorGraph:
    """A frozen factor graph; `build_graph` makes one.

    Besides the params, the graph holds their CP weights stacked by shape:
    `cp_stacks[(n, d, R)]` is the read-only, slot-major (n, P, d, R) array of
    the P params of that weight shape, used or not, and `cp_rows[pid]` is
    param pid's row in its shape's stack, in the order of `params`."""

    num_vars: int
    cardinality: int
    factors: tuple[FactorBinding, ...]
    params: Mapping[str, CPFactor]  # read-only
    unary: np.ndarray | None  # read-only (num_vars, d), or None (treated as all-ones)
    cp_stacks: Mapping[tuple[int, int, int], np.ndarray]  # read-only
    cp_rows: Mapping[str, int]  # read-only

    @cached_property
    def layout(self) -> EdgeLayout:
        """The edge arrays of this graph, built on first use."""
        arity = np.array([len(b.scope) for b in self.factors], dtype=np.intp)
        var = np.array([v for b in self.factors for v in b.scope], dtype=np.intp)
        # CP rank and param row of each factor, 0 for a dense one: a block per
        # (arity, rank)
        pids = [b.payload.param_id if isinstance(b.payload, LowRankPayload) else None
                for b in self.factors]
        rank = np.array([0 if p is None else self.params[p].rank for p in pids], dtype=np.intp)
        row = np.array([0 if p is None else self.cp_rows[p] for p in pids], dtype=np.intp)
        blocks = _groups_by_size(arity, np.arange(var.size),
                                 key=arity * (rank.max(initial=0) + 1) + rank)
        lowrank = tuple((ids, e) for ids, e in blocks if rank[ids[0]])
        dense = tuple((ids, e) for ids, e in blocks if not rank[ids[0]])
        # a stable sort keeps each variable's edges in factor order
        buckets = _groups_by_size(np.bincount(var, minlength=self.num_vars),
                                  np.argsort(var, kind="stable"))
        bucket_edges, block_edges = _raveled(buckets), _raveled(lowrank + dense)
        return EdgeLayout(
            var=_read_only(var),
            fac=_read_only(np.repeat(np.arange(arity.size), arity)),
            lowrank=lowrank,
            dense=dense,
            buckets=buckets,
            lowrank_rows=tuple(((e.shape[0], self.cardinality, int(rank[ids[0]])),
                                _consecutive(row[ids])) for ids, e in lowrank),
            bucket_edges=bucket_edges,
            block_edges=block_edges,
            to_buckets=_read_only(_positions(block_edges)[bucket_edges]),
            to_blocks=_read_only(_positions(bucket_edges)[block_edges]),
        )

    @cached_property
    def cp_blocks(self) -> tuple[np.ndarray, ...]:
        """The read-only, slot-major (n, F, d, R) CP weights of each of the
        layout's `lowrank` blocks, built on first use: column f holds the
        weights of the block's f-th factor. A view of the stack of its shape
        when the block's param rows are consecutive, else one gather from it.
        Only LBP reads these, so the neural layer never builds them."""
        return tuple(_read_only(self.cp_stacks[shape][:, rows])
                     for shape, rows in self.layout.lowrank_rows)

    @cached_property
    def slots(self) -> SlotIndex:
        """The neural layer's slot index, built when it first asks. Kept apart
        from `layout`, so that listing the slot ids builds no edge arrays.
        Raises as `factor_slots` does."""
        index: dict[str, int] = {}
        slot = np.array([index.setdefault(sid, len(index)) for a in range(len(self.factors))
                         for sid in factor_slots(self, a)], dtype=np.intp)
        return SlotIndex(
            ids=tuple(index),
            slot=_read_only(slot),
            # a stable sort keeps each slot's edges in edge order
            # item-major views of the slot-major blocks, for the batched matmul
            groups=tuple((s, e.T) for s, e in
                         _groups_by_size(np.bincount(slot), np.argsort(slot, kind="stable"))),
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
    # ((n, d, R) key of the graph's CP stack, the (F,) param rows of its
    # factors in it, or a slice when they are consecutive) per `lowrank` block
    lowrank_rows: tuple
    bucket_edges: np.ndarray  # (E,) edge of each row in bucket order
    block_edges: np.ndarray  # (E,) edge of each row in block order
    to_buckets: np.ndarray  # (E,) block-order row of each bucket-order row
    to_blocks: np.ndarray  # (E,) bucket-order row of each block-order row


@dataclass(frozen=True, eq=False)
class SlotIndex:
    """The parameter slots of one graph's edges. Slots with the same edge
    count c form one group, so that the neural layer handles a group with one
    batched matmul over (S_c, c, d_h) rows. Every array is read-only."""

    ids: tuple[str, ...]  # (S,) slot ids in first-appearance order
    slot: np.ndarray  # (E,) index into `ids` of each edge's slot
    groups: tuple  # ((S_c,) slots, (S_c, c) edges) per edge count c, each row in edge order


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


def _positions(order: np.ndarray) -> np.ndarray:
    """The inverse of the permutation `order`: the row of each edge in it."""
    pos = np.empty_like(order)
    pos[order] = np.arange(order.size)
    return pos


def _consecutive(rows: np.ndarray) -> np.ndarray | slice:
    """`rows` as a slice if they are consecutive and increasing, else as they are."""
    lo = int(rows[0])
    consecutive = np.array_equal(rows, np.arange(lo, lo + rows.size))
    return slice(lo, lo + rows.size) if consecutive else rows


def _integer(value, field: str) -> int:
    """`value` as an int if it is a Python or NumPy integer, and not a bool;
    otherwise GraphError naming `field`, so that 2.5 or true is refused
    rather than truncated."""
    if type(value) is int:  # the usual case, and the cheapest check
        return value
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise GraphError(f"{field} must be an integer, got {value!r}")


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
    """Validate bindings and freeze the graph.

    Factor ordering is preserved from the input. The graph keeps a read-only
    copy of `unary` and a read-only view of a copy of `params`, so later
    changes to the caller's objects do not reach it, and stacks the params'
    CP weights once (see `FactorGraph`). Raises GraphError with the
    offending factor index for out-of-range variables, duplicate variables
    in one scope, or payload shape mismatches.
    """
    if num_vars < 0:
        raise GraphError(f"num_vars must be >= 0, got {num_vars}")
    if cardinality < 2:
        raise GraphError(f"cardinality must be >= 2, got {cardinality}")
    params = MappingProxyType(dict(params) if params else {})
    bindings = tuple(bindings)

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
        else:
            raise GraphError(f"factor {a}: unknown payload type {type(payload).__name__}")

    unary_arr = None
    if unary is not None:
        try:
            unary_arr = np.array(unary, dtype=np.float64, order="C")
        except (TypeError, ValueError) as exc:
            raise GraphError(f"unary: {exc}") from exc
        if unary_arr.shape != (num_vars, cardinality):
            raise GraphError(
                f"unary has shape {unary_arr.shape}, expected {(num_vars, cardinality)}"
            )
        _read_only(unary_arr)

    shapes: dict[tuple[int, int, int], list[np.ndarray]] = {}
    cp_rows = {}
    for pid, cp in params.items():
        ws = shapes.setdefault(cp.weights.shape, [])
        cp_rows[pid] = len(ws)
        ws.append(cp.weights)
    # one array over the weights, then one slot-major copy of it
    cp_stacks = {shape: _read_only(np.array(ws).transpose(1, 0, 2, 3).copy())
                 for shape, ws in shapes.items()}

    return FactorGraph(
        num_vars=num_vars,
        cardinality=cardinality,
        factors=bindings,
        params=params,
        unary=unary_arr,
        cp_stacks=MappingProxyType(cp_stacks),
        cp_rows=MappingProxyType(cp_rows),
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
    Raises CapacityError past CAPACITY elements and GraphError when Z == 0.
    """
    d, n = g.cardinality, g.num_vars
    n_elements = d**n
    if n_elements > CAPACITY:
        raise CapacityError(
            f"joint table over {n} variables with d={d} needs {n_elements} elements, "
            f"capacity is {CAPACITY}"
        )
    # a plain product, not np.einsum, which turns a -0.0 product into +0.0
    joint = np.ones((d,) * n)
    if g.unary is not None:
        for i in range(n):
            joint = joint * _on_axes(g.unary[i], (i,), n)
    for a, binding in enumerate(g.factors):
        joint = joint * _on_axes(factor_table(g, a), binding.scope, n)
    z = float(joint.sum())
    if z == 0.0:
        raise GraphError("degenerate distribution: joint table has zero total mass")
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

    The optional per-factor "slots" field is an extension carrying slot ids
    for the neural layer; readers that only know the base format can ignore
    it, and absent means null.
    """
    doc = {
        "num_vars": g.num_vars,
        "cardinality": g.cardinality,
        "unary": g.unary.tolist() if g.unary is not None else None,
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
        num_vars = _integer(doc["num_vars"], "num_vars")
        cardinality = _integer(doc["cardinality"], "cardinality")
        raw_factors = doc["factors"]
        raw_params = doc.get("params") or {}
    except KeyError as exc:
        raise GraphError(f"graph file missing required field: {exc}") from exc
    if not isinstance(raw_factors, list) or not isinstance(raw_params, dict):
        raise GraphError("graph file: factors must be a list and params an object")

    params = {}
    for pid, spec in raw_params.items():
        try:
            params[pid] = CPFactor(
                arity=_integer(spec["arity"], "arity"),
                cardinality=_integer(spec["d"], "d"),
                rank=_integer(spec["rank"], "rank"),
                weights=spec["weights"],
            )
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
                data = np.asarray(payload_spec["data"], dtype=np.float64)
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
