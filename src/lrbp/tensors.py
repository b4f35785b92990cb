"""Dense potential tables, low-rank (CP) factors, and conversions between them.

A dense table stores every entry of an order-m potential; a CP factor stores
one d x R weight matrix per variable slot and represents the table
T(i_1..i_m) = sum_r prod_j W_j[i_j, r]. Rank-1 scale coefficients are always
absorbed into the weights, so there is no separate scale vector.

All values are immutable after construction.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

DEFAULT_CAPACITY = 10_000_000


class CapacityError(Exception):
    """A dense expansion or enumeration would exceed the element cap."""


def capacity_cap() -> int:
    """Element cap for dense expansion/enumeration. LRBP_CAPACITY overrides."""
    raw = os.environ.get("LRBP_CAPACITY")
    return int(raw) if raw else DEFAULT_CAPACITY


@dataclass(frozen=True)
class DenseTensor:
    """Explicit potential table, flat row-major values (last axis fastest)."""

    shape: tuple[int, ...]
    data: np.ndarray

    def __post_init__(self):
        shape = tuple(int(s) for s in self.shape)
        if not shape:
            raise ValueError("tensor shape must be non-empty")
        if any(s < 1 for s in shape):
            raise ValueError(f"axis cardinalities must be >= 1, got {shape}")
        data = np.ascontiguousarray(self.data, dtype=np.float64).reshape(-1)
        if data.size != math.prod(shape):
            raise ValueError(
                f"data length {data.size} does not match shape {shape} "
                f"(expected {math.prod(shape)})"
            )
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "data", data)

    @classmethod
    def from_array(cls, arr) -> "DenseTensor":
        a = np.asarray(arr, dtype=np.float64)
        return cls(a.shape, a.reshape(-1))

    @property
    def array(self) -> np.ndarray:
        return self.data.reshape(self.shape)

    @property
    def order(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        return self.data.size


@dataclass(frozen=True)
class CPFactor:
    """Rank-R factor over `arity` variables of uniform cardinality d.

    weights[j] is the d x R matrix for slot j; column r holds the r-th
    rank-1 component's vector for that slot. Weight arrays may be shared
    (aliased) between factors; they must not be mutated after construction.
    """

    arity: int
    cardinality: int
    rank: int
    weights: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError(f"arity must be >= 1, got {self.arity}")
        if self.cardinality < 2:
            raise ValueError(f"cardinality must be >= 2, got {self.cardinality}")
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        ws = tuple(np.ascontiguousarray(w, dtype=np.float64) for w in self.weights)
        if len(ws) != self.arity:
            raise ValueError(f"expected {self.arity} weight matrices, got {len(ws)}")
        want = (self.cardinality, self.rank)
        for j, w in enumerate(ws):
            if w.shape != want:
                raise ValueError(f"weights[{j}] has shape {w.shape}, expected {want}")
        object.__setattr__(self, "weights", ws)


def cp_expand(f: CPFactor, cap: int | None = None) -> DenseTensor:
    """Expand a CP factor to its dense table.

    Entry (i_1..i_m) is sum_r prod_j weights[j][i_j, r]; exact up to
    floating-point accumulation. Raises CapacityError when d**arity
    exceeds the element cap.
    """
    cap = capacity_cap() if cap is None else cap
    n_elements = f.cardinality**f.arity
    if n_elements > cap:
        raise CapacityError(
            f"expansion of arity-{f.arity} factor with d={f.cardinality} needs "
            f"{n_elements} elements, cap is {cap}"
        )
    acc = f.weights[0]
    for w in f.weights[1:]:
        acc = (acc[:, None, :] * w[None, :, :]).reshape(-1, f.rank)
    return DenseTensor((f.cardinality,) * f.arity, acc.sum(axis=1))


def cp_random(arity: int, d: int, rank: int, seed: int, scale: float = 1.0) -> CPFactor:
    """Seeded random CP factor with entries i.i.d. uniform on [0, scale].

    Nonnegative weights, so the expanded table is a valid potential.
    Deterministic for a fixed seed.
    """
    if arity < 1 or d < 2 or rank < 1:
        raise ValueError(f"invalid CP shape: arity={arity}, d={d}, rank={rank}")
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    rng = np.random.default_rng(seed)
    weights = tuple(rng.uniform(0.0, scale, size=(d, rank)) for _ in range(arity))
    return CPFactor(arity, d, rank, weights)


def khatri_rao(mats: list[np.ndarray]) -> np.ndarray:
    """Column-wise Kronecker product; the first matrix varies slowest.

    Row ordering matches C-order flattening of the corresponding axes.
    """
    out = mats[0]
    for m in mats[1:]:
        out = (out[:, None, :] * m[None, :, :]).reshape(-1, out.shape[1])
    return out


def _solve_normal_eqs(gram: np.ndarray, rhs: np.ndarray, ridge: float) -> np.ndarray:
    # Cholesky doubles as the singularity probe; singular grams get a ridge.
    try:
        np.linalg.cholesky(gram)
        return np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        g = gram + ridge * np.eye(gram.shape[0])
        return np.linalg.solve(g, rhs)


def cp_fit_als(
    t: DenseTensor,
    rank: int,
    max_iters: int = 200,
    tol: float = 1e-12,
    seed: int = 0,
    ridge: float = 1e-9,
    return_errors: bool = False,
):
    """Fit a CP factor to a dense table by alternating least squares.

    Requires uniform axis cardinality. Each mode update solves the normal
    equations; singular systems (e.g. overparameterized ranks) are
    regularized with a 1e-9 ridge and the sweep continues. The relative
    error ||expand(fit) - t||_F / ||t||_F is recomputed per sweep and is
    non-increasing up to the tiny ridge perturbation. Stops when the error
    improvement drops below `tol`.

    Returns (factor, final_relative_error), plus the per-sweep error list
    when return_errors is set.
    """
    cards = set(t.shape)
    if len(cards) != 1:
        raise ValueError(f"ALS requires uniform axis cardinality, got shape {t.shape}")
    d = t.shape[0]
    if d < 2:
        raise ValueError(f"cardinality must be >= 2 to fit a CP factor, got {d}")
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")

    m = t.order
    x = t.array
    norm_x = float(np.linalg.norm(t.data))
    rng = np.random.default_rng(seed)
    ws = [rng.uniform(size=(d, rank)) for _ in range(m)]

    def rel_error() -> float:
        approx = cp_expand(CPFactor(m, d, rank, tuple(ws)), cap=t.size)
        resid = float(np.linalg.norm(approx.data - t.data))
        return resid / norm_x if norm_x > 0 else resid

    errors = []
    prev = None
    for _ in range(max_iters):
        for n in range(m):
            gram = np.ones((rank, rank))
            for j in range(m):
                if j != n:
                    gram *= ws[j].T @ ws[j]
            unfolded = np.moveaxis(x, n, 0).reshape(d, -1)
            mttkrp = unfolded @ khatri_rao([ws[j] for j in range(m) if j != n])
            ws[n] = _solve_normal_eqs(gram, mttkrp.T, ridge).T
        err = rel_error()
        errors.append(err)
        if prev is not None and abs(prev - err) < tol:
            break
        prev = err

    factor = CPFactor(m, d, rank, tuple(ws))
    final = errors[-1] if errors else rel_error()
    if return_errors:
        return factor, final, errors
    return factor, final


def leave_one_out(x: np.ndarray, axis: int) -> np.ndarray:
    """out[..., k, ...] = product of x[..., j, ...] over j != k along `axis`,
    by a prefix and a suffix cumprod: O(n) multiplications, no division."""
    x = np.moveaxis(x, axis, 0)
    out = np.ones_like(x)
    np.cumprod(x[:-1], axis=0, out=out[1:])
    out[:-1] *= np.cumprod(x[:0:-1], axis=0)[::-1]
    return np.moveaxis(out, 0, axis)


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
