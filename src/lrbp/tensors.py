"""Low-rank (CP) factors, the expansion of a CP factor to its dense table,
the outer products that fix a dense table's axis order, the leave-one-out
product kernel that LBP and the neural layer share, with its derivative for
the neural layer's backward, and the input contract.

The input contract holds for every size and real array that lrbp takes from
a caller or a file. A size is a Python or NumPy integer, not a bool, and is
stored as `int` (`_integer`). An array must have dtype kind f, i or u, and is
stored as C-contiguous float64 (`_float_array`): strings, bools, None and
complex values are refused, not converted (NumPy reads a bool among numbers
as a number, though). Slot ids are a sequence of `str`, not a str itself
(`_slot_ids`); those that name the rows of a parameter table do not repeat.
An array read from JSON, which keeps no shape for an empty array, meets its
expected shape through `_shaped`, where (0,) stands for any empty shape.
A refusal is a ValueError naming the field, raised by `lrbp.graph` as a
GraphError.

Both kernels take the product along axis 0, the slot axis of the callers'
slot-major gathers, by one prefix/suffix scan over its contiguous slabs
(`_scan`). `leave_one_out` keeps a cumprod branch for a slot axis longer than
one slab; the derivative runs the scan's order over dual numbers, on the
values and tangents as two arrays.

A dense table is a plain (d,) * m float64 array holding every entry of an
order-m potential, its axes in the order of `_outer`; a CP factor stores one
(m, d, R) weight array W and represents the table T(i_1..i_m) =
sum_r prod_j W[j, i_j, r]. Rank-1 scale coefficients are always absorbed
into the weights, so there is no separate scale vector. A CP factor owns its
weights, as a graph owns every array it holds: it copies them once and marks
the copy read-only.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# the most elements a dense expansion or enumeration may hold
CAPACITY = 10_000_000
# the sizes of a CP factor, each with its least value
_CP_SIZES = (("arity", 1), ("cardinality", 2), ("rank", 1))


class CapacityError(Exception):
    """A dense expansion or enumeration would exceed CAPACITY elements."""


def _check_capacity(d: int, n: int, what: str) -> None:
    """CapacityError when `what`, a (d,) * n array, would exceed CAPACITY elements."""
    if d**n > CAPACITY:
        raise CapacityError(f"{what} with d={d} needs {d**n} elements, capacity is {CAPACITY}")


@dataclass(frozen=True, eq=False)  # identity equality: fields hold arrays
class CPFactor:
    """Rank-R factor over `arity` variables of uniform cardinality d.

    weights is one (arity, d, R) array; weights[j] is the d x R matrix of
    slot j, whose column r holds the r-th rank-1 component's vector for that
    slot. The constructor takes any array-like of that shape, such as a
    sequence of `arity` d x R matrices, and keeps its own read-only copy.
    Sizes and weights follow the input contract of the module docstring;
    arity and rank must be >= 1 and cardinality >= 2.
    """

    arity: int
    cardinality: int
    rank: int
    weights: np.ndarray

    def __post_init__(self):
        for name, minimum in _CP_SIZES:
            object.__setattr__(self, name, _integer(getattr(self, name), name, minimum))
        want = (self.arity, self.cardinality, self.rank)
        try:
            w = _float_array(self.weights, "weights")
            problem = None if w.shape == want else f"weights have shape {w.shape}"
        except ValueError as exc:
            problem = str(exc)
        if problem is not None:  # formatted only here: a load builds thousands of factors
            raise ValueError(f"{problem}; expected shape {want}: {self.arity} weight matrices "
                             f"of shape {want[1:]}") from None
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)


def _integer(value, field: str, minimum: int | None = None, error: type = ValueError) -> int:
    """`value` as an int under the input contract, of at least `minimum` if
    that is given; otherwise `error` naming `field`."""
    if type(value) is not int:  # an int is the usual case, and the cheapest check
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise error(f"{field} must be an integer, got {value!r}")
        value = int(value)
    if minimum is not None and value < minimum:
        raise error(f"{field} must be >= {minimum}, got {value}")
    return value


def _float_array(x, field: str, copy: bool = True) -> np.ndarray:
    """`x` as a C-contiguous float64 array under the input contract: a new
    one, made by at most one copy of x, or with copy=False `x` itself when it
    already is one; otherwise ValueError naming `field`."""
    try:
        a = np.asarray(x)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{field}: not one array ({exc})") from None
    if a.dtype.kind not in "fiu":
        raise ValueError(f"{field} must be real numbers, got dtype {a.dtype}")
    # NumPy builds a new array from a list or tuple; any other x may share its memory
    return a.astype(np.float64, order="C", copy=copy and not isinstance(x, (list, tuple)))


def _shaped(x: np.ndarray, shape: tuple[int, ...], field: str) -> np.ndarray:
    """`x` of `shape`, where a (0,) array, all that JSON keeps of any empty
    array, takes an empty `shape`; otherwise ValueError naming `field`."""
    if x.shape != shape and not (x.shape == (0,) and 0 in shape):
        raise ValueError(f"{field} has shape {x.shape}, expected {shape}")
    return x if x.shape == shape else x.reshape(shape)


def _slot_ids(ids, field: str, unique: bool = False, error: type = ValueError):
    """`ids` as a tuple under the input contract, or with `unique` as the
    {id: position} dict of ids that do not repeat; otherwise `error` naming
    `field` or the first repeated id."""
    if isinstance(ids, str):  # it would make one id per character
        raise error(f"{field} must be a sequence of strings, not the string {ids!r}")
    ids = tuple(ids)
    for sid in ids:
        if not isinstance(sid, str):
            raise error(f"{field} must be strings, got {sid!r}")
    if not unique:
        return ids
    index = {sid: k for k, sid in enumerate(ids)}
    if len(index) < len(ids):
        raise error(f"repeated slot id {next(s for s in ids if ids.count(s) > 1)!r}")
    return index


def cp_expand(f: CPFactor) -> np.ndarray:
    """Expand a CP factor to its (d,) * arity dense table.

    Entry (i_1..i_m) is sum_r prod_j weights[j, i_j, r]; exact up to
    floating-point accumulation. Raises CapacityError when d**arity
    exceeds CAPACITY.
    """
    _check_capacity(f.cardinality, f.arity, f"expansion of arity-{f.arity} factor")
    # the outer product of each rank-1 component's slot vectors, summed
    return _outer(f.weights.transpose(0, 2, 1)).sum(axis=0).reshape((f.cardinality,) * f.arity)


def _outer(rows: np.ndarray) -> np.ndarray:
    """(F, d**j) outer products of slot-major (j, F, d) rows, row 0 the
    slowest axis, built from the last row forward: the axis order of a dense
    table, by which `cp_expand` builds one and LBP's dense kernel reads it."""
    acc = rows[-1]
    for row in rows[-2::-1]:
        acc = (row[:, :, None] * acc[:, None, :]).reshape(len(acc), -1)
    return acc


def cp_random(arity: int, d: int, rank: int, seed: int) -> CPFactor:
    """Seeded random CP factor with entries i.i.d. uniform on [0, 1].

    Nonnegative weights, so the expanded table is a valid potential.
    Deterministic for a fixed seed. The sizes are checked as `CPFactor`
    checks them, before the draw.
    """
    sizes = [_integer(v, name, minimum) for v, (name, minimum) in zip((arity, d, rank), _CP_SIZES)]
    return CPFactor(*sizes, np.random.default_rng(seed).uniform(size=sizes))


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


def leave_one_out_tangent(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The derivative of leave_one_out(x) along t: out[l] is the sum over
    k != l of t[k] times the product of x[m] over m != k, l, along the slot
    axis 0. It is the eps-part of leave_one_out over the dual numbers
    x + eps*t: `_scan`'s prefix/suffix order, on x and t in place of their
    stack, where (a + eps a') * (b + eps b') has eps-part a*b' + a'*b, in
    that order. So it agrees bit for bit with `_scan` over the stacked pairs.
    O(n) multiplications, no division, and a slab of scratch."""
    n = x.shape[0]
    if n < 2:
        return np.zeros_like(x)
    pre, out, tmp = np.empty_like(x), np.empty_like(x), np.empty_like(x[0])
    pre[1], out[1] = x[0], t[0]
    for k in range(2, n):  # (pre, out)[k] = (pre, out)[k - 1] * (x, t)[k - 1]
        np.multiply(out[k - 1], x[k - 1], out=tmp)
        np.multiply(pre[k - 1], t[k - 1], out=out[k])
        out[k] += tmp
        np.multiply(pre[k - 1], x[k - 1], out=pre[k])
    suf, d_suf = x[n - 1].copy(), out[0]  # s_k, ending as out[0] = s_0's eps-part
    d_suf[...] = t[n - 1]
    for k in range(n - 2, 0, -1):
        np.multiply(out[k], suf, out=tmp)  # out[k] = eps-part of (pre, out)[k] * (suf, d_suf)
        np.multiply(pre[k], d_suf, out=out[k])
        out[k] += tmp
        np.multiply(d_suf, x[k], out=tmp)  # (suf, d_suf) *= (x, t)[k]
        np.multiply(suf, t[k], out=d_suf)
        d_suf += tmp
        suf *= x[k]
    return out
