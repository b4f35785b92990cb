"""The one-message LBP reference that the tests compare `run_lbp` against,
and the finite-difference check of the neural layer's backward.

Messages live in dicts keyed (var, factor) and (factor, var), and each update
computes one message: variable-to-factor by a direct product, dense
factor-to-variable by `marginalize_product` over the full table, low-rank
factor-to-variable by the kernel `run_lbp` batches. Every variable's factors
come from the factor scopes, not from `g.layout`, so the reference shares no
index structure with the engine it checks.

`dual_scan_tangent` is the first form of `leave_one_out_tangent`, `_scan`
over the stacked (value, tangent) pairs, which the kernel must match bit for
bit.

`grad_check` compares `lrbp.neural`'s hand-derived gradients against central
differences of its forward pass. It looks the stack up in `lrbp.neural` on
each call, so a test that patches a function there reaches it.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from lrbp import neural
from lrbp.engine import NEGATIVE_TOL, SignViolationWarning, _lowrank_messages, _normalize
from lrbp.graph import FactorGraph, factor_cp, factor_table
from lrbp.neural import HiddenStates, LayerParams
from lrbp.tensors import _scan


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

    Normalized; with no other neighbours this is the normalized unary.
    """
    if a not in state.var_factors[i]:
        raise ValueError(f"factor {a} is not adjacent to variable {i}")
    prod = g.unary[i].copy()
    for c in state.var_factors[i]:
        if c != a:
            prod = prod * state.factor_to_var[(c, i)]
    return _normalize(prod, f"message {i}->{a}")


def factor_to_var_dense(state: MessageState, g: FactorGraph, a: int, i: int) -> np.ndarray:
    """Factor-to-variable update by dense marginalization.

    Low-rank payloads are expanded first, subject to `CAPACITY`.
    """
    binding = g.factors[a]
    pos = binding.scope.index(i)
    incoming = [
        None if j == i else state.var_to_factor[(j, a)] for j in binding.scope
    ]
    vec = marginalize_product(factor_table(g, a), incoming, keep=pos)
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
    out = g.unary.copy()
    for i in range(g.num_vars):
        for a in state.var_factors[i]:
            out[i] = out[i] * state.factor_to_var[(a, i)]
    return _normalize(out, "belief of variable {}", range(g.num_vars))


def marginalize_product(arr: np.ndarray, incoming, keep: int) -> np.ndarray:
    """Sum out all axes but `keep` after weighting by the incoming messages.

    Computes sum over all other axes of arr * prod_{j != keep} incoming[j],
    by direct (vectorized) enumeration of the full table. `incoming` has one
    vector per axis; the entry at `keep` is a placeholder and is ignored
    (None is fine). This is the dense factor-to-variable oracle.
    """
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


def _dual_multiply(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(a[0] + eps a[1]) * (b[0] + eps b[1]) with eps**2 = 0, into `out`."""
    eps_part = a[0] * b[1]
    eps_part += a[1] * b[0]
    np.multiply(a[0], b[0], out=out[0])
    out[1] = eps_part
    return out


def dual_scan_tangent(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The eps-part of leave_one_out(x + eps*t) along axis 0, by `_scan` over
    the (n, 2, ...) stack of values and tangents; zeros for n < 2."""
    if x.shape[0] < 2:
        return np.zeros_like(x)
    return _scan(np.stack((x, t), axis=1), _dual_multiply)[:, 1]


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
        out, tape = neural.forward_stack(h0, g, p, layers)
        return out.values, [z > 0 for z in tape.z]

    h_t, tape = neural.forward_stack(h0, g, p, layers)
    grads = {name: np.zeros_like(arr) for name, arr in p.arrays.items()}
    neural.backward_stack(tape, 2.0 * h_t.values, grads)

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
