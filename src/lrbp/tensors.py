"""Low-rank (CP) factors, the expansion of a CP factor to its dense table,
and the leave-one-out product kernel that LBP and the neural layer share,
with its derivative for the neural layer's backward.

Both kernels take the product along axis 0, the slot axis of the callers'
slot-major gathers, and share one prefix/suffix scan over its contiguous
slabs. `leave_one_out` keeps a cumprod branch for a slot axis longer than one
slab; the derivative runs the same scan over dual numbers.

A dense table is a plain (d,) * m float64 array holding every entry of an
order-m potential; a CP factor stores one (m, d, R) weight array W and
represents the table T(i_1..i_m) = sum_r prod_j W[j, i_j, r]. Rank-1 scale
coefficients are always absorbed into the weights, so there is no separate
scale vector. A CP factor owns its weights: it copies them once and marks the
copy read-only.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# the most elements a dense expansion or enumeration may hold
CAPACITY = 10_000_000


class CapacityError(Exception):
    """A dense expansion or enumeration would exceed CAPACITY elements."""


@dataclass(frozen=True, eq=False)  # identity equality: fields hold arrays
class CPFactor:
    """Rank-R factor over `arity` variables of uniform cardinality d.

    weights is one (arity, d, R) array; weights[j] is the d x R matrix of
    slot j, whose column r holds the r-th rank-1 component's vector for that
    slot. The constructor takes any array-like of that shape, such as a
    sequence of `arity` d x R matrices, and keeps its own C-contiguous,
    read-only float64 copy.
    """

    arity: int
    cardinality: int
    rank: int
    weights: np.ndarray

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError(f"arity must be >= 1, got {self.arity}")
        if self.cardinality < 2:
            raise ValueError(f"cardinality must be >= 2, got {self.cardinality}")
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        want = (self.arity, self.cardinality, self.rank)
        expected = f"expected shape {want}: {self.arity} weight matrices of shape {want[1:]}"
        try:
            w = np.array(self.weights, dtype=np.float64, order="C")
        except (TypeError, ValueError) as exc:
            raise ValueError(f"weights do not form one array ({exc}); {expected}") from None
        if w.shape != want:
            raise ValueError(f"weights have shape {w.shape}; {expected}")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)


def cp_expand(f: CPFactor) -> np.ndarray:
    """Expand a CP factor to its (d,) * arity dense table.

    Entry (i_1..i_m) is sum_r prod_j weights[j, i_j, r]; exact up to
    floating-point accumulation. Raises CapacityError when d**arity
    exceeds CAPACITY.
    """
    n_elements = f.cardinality**f.arity
    if n_elements > CAPACITY:
        raise CapacityError(
            f"expansion of arity-{f.arity} factor with d={f.cardinality} needs "
            f"{n_elements} elements, capacity is {CAPACITY}"
        )
    # column-wise Kronecker product of the slot matrices, the first varying slowest
    rows = f.weights[0]
    for w in f.weights[1:]:
        rows = (rows[:, None, :] * w[None, :, :]).reshape(-1, f.rank)
    return rows.sum(axis=1).reshape((f.cardinality,) * f.arity)


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
    return CPFactor(arity, d, rank, rng.uniform(0.0, scale, size=(arity, d, rank)))


def _scan(x: np.ndarray, mul) -> np.ndarray:
    """out[k] = mul(p_k, s_k) for the n >= 2 slabs x[k] along axis 0, with
    p_k = x[0] * ... * x[k-1] and s_k = x[n-1] * ... * x[k+1] each multiplied
    out in that order, and one side alone at k = 0 and k = n - 1. `mul(a, b,
    out=)` multiplies two slabs; `out` may alias either. One Python step per
    slab, each on whole contiguous slabs."""
    n = x.shape[0]
    out = np.empty_like(x)
    out[1] = x[0]
    for k in range(2, n):
        mul(out[k - 1], x[k - 1], out=out[k])
    suf = out[0]  # s_k builds up in place, ending as out[0] = s_0
    suf[...] = x[n - 1]
    for k in range(n - 2, 0, -1):
        mul(out[k], suf, out=out[k])
        mul(suf, x[k], out=suf)
    return out


def leave_one_out(x: np.ndarray) -> np.ndarray:
    """out[k] = product of x[j] over j != k, along the slot axis 0: O(n)
    multiplications, no division; ones for n <= 1.

    A slot axis no longer than a slab x[0] is scanned slab by slab. A longer
    one (a hub's degree bucket: many slots, few rows) takes a prefix and a
    suffix np.cumprod, whose one inner loop per element is then cheaper than
    one Python step per slab. Both multiply in the same order, so the two
    branches agree bit for bit."""
    n = x.shape[0]
    if n < 2:
        return np.ones_like(x)
    if n <= x[0].size:
        return _scan(x, np.multiply)
    out = np.ones_like(x)
    np.cumprod(x[:-1], axis=0, out=out[1:])
    out[:-1] *= np.cumprod(x[:0:-1], axis=0)[::-1]
    return out


def _dual_multiply(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(a[0] + eps a[1]) * (b[0] + eps b[1]) with eps**2 = 0, into `out`."""
    eps_part = a[0] * b[1]
    eps_part += a[1] * b[0]
    np.multiply(a[0], b[0], out=out[0])
    out[1] = eps_part
    return out


def leave_one_out_tangent(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The derivative of leave_one_out(x) along t: out[l] is the sum over
    k != l of t[k] times the product of x[m] over m != k, l, along the slot
    axis 0. It is the eps-part of leave_one_out over the dual numbers
    x + eps*t, by the same slab scan over (product, eps-part) pairs: O(n)
    multiplications, no division."""
    if x.shape[0] < 2:
        return np.zeros_like(x)
    return _scan(np.stack((x, t), axis=1), _dual_multiply)[:, 1]
