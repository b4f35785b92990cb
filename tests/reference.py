"""The one-message LBP reference that the tests compare `run_lbp` against.

Messages live in dicts keyed (var, factor) and (factor, var), and each update
computes one message: variable-to-factor by a direct product, dense
factor-to-variable by `marginalize_product` over the full table, low-rank
factor-to-variable by the kernel `run_lbp` batches. Every variable's factors
come from the factor scopes, not from `g.layout`, so the reference shares no
index structure with the engine it checks.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from lrbp.engine import NEGATIVE_TOL, SignViolationWarning, _lowrank_messages, _normalize
from lrbp.graph import FactorGraph, factor_cp, factor_table
from lrbp.tensors import DEFAULT_CAPACITY, DenseTensor


@dataclass
class MessageState:
    """Message buffers keyed (var, factor_idx) and (factor_idx, var), plus
    the factors of each variable in factor order."""

    var_to_factor: dict[tuple[int, int], np.ndarray]
    factor_to_var: dict[tuple[int, int], np.ndarray]
    var_factors: tuple[tuple[int, ...], ...]


def init_messages(g: FactorGraph) -> MessageState:
    """Uniform 1/d start for both message families, keyed in edge order."""
    uniform = np.full(g.cardinality, 1.0 / g.cardinality)
    edges = [(i, a) for a, b in enumerate(g.factors) for i in b.scope]
    var_factors: list[list[int]] = [[] for _ in range(g.num_vars)]
    for i, a in edges:
        var_factors[i].append(a)
    return MessageState({(i, a): uniform.copy() for i, a in edges},
                        {(a, i): uniform.copy() for i, a in edges},
                        tuple(tuple(fs) for fs in var_factors))


def var_to_factor_update(state: MessageState, g: FactorGraph, i: int, a: int) -> np.ndarray:
    """Product of incoming factor messages excluding `a`, times the unary.

    Normalized; with no other neighbours this is the normalized unary
    (uniform when the unary is absent).
    """
    if a not in state.var_factors[i]:
        raise ValueError(f"factor {a} is not adjacent to variable {i}")
    prod = g.unary[i].copy() if g.unary is not None else np.ones(g.cardinality)
    for c in state.var_factors[i]:
        if c != a:
            prod = prod * state.factor_to_var[(c, i)]
    return _normalize(prod, f"message {i}->{a}")


def factor_to_var_dense(
    state: MessageState, g: FactorGraph, a: int, i: int, cap: int = DEFAULT_CAPACITY
) -> np.ndarray:
    """Factor-to-variable update by dense marginalization.

    Low-rank payloads are expanded first, subject to the capacity cap.
    """
    binding = g.factors[a]
    pos = binding.scope.index(i)
    incoming = [
        None if j == i else state.var_to_factor[(j, a)] for j in binding.scope
    ]
    vec = marginalize_product(factor_table(g, a, cap=cap), incoming, keep=pos)
    return _normalize(vec, f"message {a}->{i}")


def factor_to_var_lowrank(state: MessageState, g: FactorGraph, a: int, i: int) -> np.ndarray:
    """Low-rank factor-to-variable update, by the kernel `run_lbp` batches:
    O(n_a * d * R). Warns when the message has negative entries."""
    cp = factor_cp(g, a)
    scope = g.factors[a].scope
    m = np.array([state.var_to_factor[(j, a)] for j in scope])
    vec = _lowrank_messages(cp.weights[:, None], m[:, None])[scope.index(i), 0]
    if np.any(vec < NEGATIVE_TOL):
        warnings.warn(f"low-rank message {a}->{i} has negative entries (min {vec.min():.3e}); "
                      "mixed-sign weights void the probabilistic guarantees",
                      SignViolationWarning, stacklevel=2)
    return _normalize(vec, f"message {a}->{i}")


def beliefs_from_messages(g: FactorGraph, state: MessageState) -> np.ndarray:
    """Per-variable beliefs: unary times all incoming factor messages."""
    out = g.unary.copy() if g.unary is not None else np.ones((g.num_vars, g.cardinality))
    for i in range(g.num_vars):
        for a in state.var_factors[i]:
            out[i] = out[i] * state.factor_to_var[(a, i)]
    return _normalize(out, "belief of variable {}", range(g.num_vars))


def marginalize_product(t: DenseTensor, incoming, keep: int) -> np.ndarray:
    """Sum out all axes but `keep` after weighting by the incoming messages.

    Computes sum over all other axes of t * prod_{j != keep} incoming[j],
    by direct (vectorized) enumeration of the full table. `incoming` has one
    vector per axis; the entry at `keep` is a placeholder and is ignored
    (None is fine). This is the dense factor-to-variable oracle.
    """
    arr = t.array
    m = arr.ndim
    if not 0 <= keep < m:
        raise ValueError(f"keep axis {keep} out of range for order-{m} tensor")
    if len(incoming) != m:
        raise ValueError(f"expected {m} message slots, got {len(incoming)}")
    acc = arr
    for axis, msg in enumerate(incoming):
        if axis == keep:
            continue
        v = np.asarray(msg, dtype=np.float64)
        if v.shape != (arr.shape[axis],):
            raise ValueError(
                f"message for axis {axis} has shape {v.shape}, "
                f"expected ({arr.shape[axis]},)"
            )
        shape = [1] * m
        shape[axis] = v.size
        acc = acc * v.reshape(shape)
    axes = tuple(ax for ax in range(m) if ax != keep)
    if not axes:
        return acc.copy()
    return acc.sum(axis=axes)
