import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrbp.tensors import (
    CAPACITY,
    CapacityError,
    CPFactor,
    cp_expand,
    cp_random,
    leave_one_out,
    leave_one_out_tangent,
)
from reference import dual_scan_tangent, marginalize_product


def expand_oracle(weights):
    """CP expansion by explicit index loops, independent of cp_expand."""
    d, rank = weights[0].shape
    m = len(weights)
    out = np.zeros((d,) * m)
    for idx in itertools.product(range(d), repeat=m):
        total = 0.0
        for r in range(rank):
            term = 1.0
            for j, i in enumerate(idx):
                term *= weights[j][i, r]
            total += term
        out[idx] = total
    return out


def marginalize_oracle(arr, incoming, keep):
    """Weighted marginalization by an explicit loop nest."""
    out = np.zeros(arr.shape[keep])
    for idx in itertools.product(*(range(s) for s in arr.shape)):
        term = arr[idx]
        for axis, msg in enumerate(incoming):
            if axis == keep:
                continue
            term *= msg[idx[axis]]
        out[idx[keep]] += term
    return out


class TestCPFactorValidation:
    def test_wrong_matrix_count(self):
        w = np.ones((2, 1))
        with pytest.raises(ValueError, match="weight matrices"):
            CPFactor(3, 2, 1, (w, w))

    def test_wrong_matrix_shape(self):
        with pytest.raises(ValueError, match="shape"):
            CPFactor(2, 2, 1, (np.ones((2, 1)), np.ones((3, 1))))

    def test_rejects_unit_cardinality(self):
        with pytest.raises(ValueError, match="cardinality"):
            CPFactor(1, 1, 1, (np.ones((1, 1)),))

    # sizes are integers, not bools or floats, whatever the weights' shape
    @pytest.mark.parametrize("sizes, match", [
        ((True, 2, 1), "arity must be an integer, got True"),
        ((2.0, 2, 1), "arity must be an integer, got 2.0"),
        ((2, 2, np.float64(1.0)), "rank must be an integer, got "),  # repr varies by NumPy
        ((2, np.True_, 1), "cardinality must be an integer, got "),
    ])
    def test_sizes_must_be_integers(self, sizes, match):
        with pytest.raises(ValueError, match=match):
            CPFactor(*sizes, np.ones(tuple(int(s) for s in sizes)))

    def test_sizes_stored_as_python_ints(self):
        cp = CPFactor(np.int64(2), np.int32(3), np.uint8(2), np.ones((2, 3, 2)))
        assert [type(s) for s in (cp.arity, cp.cardinality, cp.rank)] == [int] * 3
        assert (cp.arity, cp.cardinality, cp.rank) == (2, 3, 2)


class TestCPExpand:
    def test_basis_outer_product(self):
        # single outer product of basis vectors
        w = np.array([[1.0], [0.0]])
        f = CPFactor(2, 2, 1, (w, w))
        assert np.array_equal(cp_expand(f), [[1.0, 0.0], [0.0, 0.0]])

    def test_outer_product_of_ones(self):
        w = np.ones((2, 1))
        f = CPFactor(3, 2, 1, (w, w, w))
        assert np.array_equal(cp_expand(f), np.ones((2, 2, 2)))

    def test_matches_loop_oracle_seeded(self):
        f = cp_random(3, 3, 4, seed=11)
        expected = expand_oracle(f.weights)
        np.testing.assert_allclose(cp_expand(f), expected, atol=1e-12, rtol=0)

    def test_capacity_error(self):
        # 2**24 elements is past CAPACITY; the check raises before any allocation
        assert 2**23 < CAPACITY < 2**24
        for arity in (24, 30):
            with pytest.raises(CapacityError, match=f"{2**arity} elements"):
                cp_expand(cp_random(arity, 2, 1, seed=0))

    @settings(max_examples=30, deadline=None)
    @given(
        arity=st.integers(1, 4),
        d=st.integers(2, 3),
        rank=st.integers(1, 5),
        seed=st.integers(0, 10_000),
    )
    def test_matches_loop_oracle_property(self, arity, d, rank, seed):
        f = cp_random(arity, d, rank, seed=seed)
        np.testing.assert_allclose(
            cp_expand(f), expand_oracle(f.weights), atol=1e-12, rtol=0
        )


class TestCPRandom:
    def test_deterministic_for_seed(self):
        a = cp_random(2, 2, 1, seed=7)
        b = cp_random(2, 2, 1, seed=7)
        assert np.array_equal(a.weights, b.weights)

    def test_expansion_nonnegative(self):
        f = cp_random(3, 4, 8, seed=1)
        assert np.all(cp_expand(f) >= 0)

    @pytest.mark.parametrize("arity, d, rank, seed", [
        (1, 2, 1, 0), (3, 4, 8, 5), (6, 3, 2, 123), (2, 5, 16, 2**40),
    ])
    def test_same_values_as_per_slot_draws(self, arity, d, rank, seed):
        # one (arity, d, R) draw equals arity successive (d, R) draws, so a
        # seeded cp_random factor keeps the values it had as per-slot draws
        rng = np.random.default_rng(seed)
        slots = [rng.uniform(0.0, 1.0, size=(d, rank)) for _ in range(arity)]
        assert np.array(slots).tobytes() == cp_random(arity, d, rank, seed).weights.tobytes()

    @pytest.mark.parametrize("arity, d, rank, match", [
        (0, 2, 1, "arity must be >= 1, got 0"),
        (2, 1, 1, "cardinality must be >= 2, got 1"),
        (2, 2, 0, "rank must be >= 1, got 0"),
        (2.5, 2, 1, "arity must be an integer, got 2.5"),
        (True, 2, 1, "arity must be an integer, got True"),
        (2, 2.0, 1, "cardinality must be an integer, got 2.0"),
        (2, 2, "1", "rank must be an integer, got '1'"),
    ])
    def test_rejects_bad_parameters(self, arity, d, rank, match):
        # the sizes are checked before the draw, as CPFactor checks them
        with pytest.raises(ValueError, match=match):
            cp_random(arity, d, rank, seed=0)
        with pytest.raises(ValueError, match=match):
            CPFactor(arity, d, rank, np.ones((2, 2, 1)))


class TestMarginalizeProduct:
    def test_identity_row_sums(self):
        out = marginalize_product(np.eye(2), [None, np.array([1.0, 1.0])], keep=0)
        assert np.array_equal(out, [1.0, 1.0])

    def test_all_ones_uniform_messages(self):
        half = np.array([0.5, 0.5])
        out = marginalize_product(np.ones((2, 2, 2)), [None, half, half], keep=0)
        np.testing.assert_allclose(out, [1.0, 1.0], atol=1e-15)

    def test_matches_loop_oracle_seeded(self):
        rng = np.random.default_rng(21)
        arr = rng.uniform(size=(3, 3, 3))
        msgs = [rng.uniform(0.1, 1.0, size=3) for _ in range(3)]
        for keep in range(3):
            got = marginalize_product(arr, msgs, keep)
            np.testing.assert_allclose(
                got, marginalize_oracle(arr, msgs, keep), atol=1e-12, rtol=0
            )

    def test_shape_error(self):
        t = np.ones((2, 3))
        with pytest.raises(ValueError, match="axis 1"):
            marginalize_product(t, [None, np.ones(2)], keep=0)
        with pytest.raises(ValueError, match="message slots"):
            marginalize_product(t, [np.ones(3)], keep=0)

    def test_arity_one_returns_table(self):
        t = np.array([2.0, 6.0])
        assert np.array_equal(marginalize_product(t, [None], keep=0), [2.0, 6.0])

    @settings(max_examples=25, deadline=None)
    @given(
        order=st.integers(1, 4),
        d=st.integers(2, 3),
        seed=st.integers(0, 10_000),
    )
    def test_mass_conservation_property(self, order, d, seed):
        # with all-ones messages every keep axis reproduces the total mass
        rng = np.random.default_rng(seed)
        arr = rng.uniform(size=(d,) * order)
        ones = [np.ones(d)] * order
        for keep in range(order):
            out = marginalize_product(arr, ones, keep)
            assert abs(out.sum() - arr.sum()) < 1e-10


class TestLeaveOneOut:
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(0, 9),
        slab=st.sampled_from([(1,), (2, 1), (3,), (2, 3), (4, 5)]),
        special=st.sampled_from([0.0, 0.3]),
        seed=st.integers(0, 10**6),
    )
    def test_matches_cumprod_and_brute_force(self, n, slab, special, seed):
        # slabs of 1 to 20 entries put n on both sides of the slab size, so both
        # the slab scan and the cumprod branch run; `special` of the entries are
        # exact zeros or +-inf
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.5, 2.0, size=(n,) + slab) * rng.choice([-1.0, 1.0], size=(n,) + slab)
        pick = rng.uniform(size=x.shape) < special
        x[pick] = rng.choice([0.0, np.inf, -np.inf], size=int(pick.sum()))
        with np.errstate(invalid="ignore"):  # 0 * inf
            got = leave_one_out(x)
            # the reference multiplies in the same order: prefix times reversed suffix
            want = np.ones_like(x)
            if n > 1:
                want[1:] = np.cumprod(x[:-1], axis=0)
                want[:-1] *= np.cumprod(x[:0:-1], axis=0)[::-1]
            brute = np.array([np.prod(np.delete(x, k, axis=0), axis=0) for k in range(n)])
        assert got.shape == x.shape
        assert np.array_equal(got, want, equal_nan=True)
        if n:
            finite = np.isfinite(brute)
            assert np.array_equal(got[~finite], brute[~finite], equal_nan=True)
            assert np.all(np.abs(got[finite] - brute[finite]) <= 1e-12 * np.abs(brute[finite]))


class TestLeaveOneOutTangent:
    @settings(max_examples=100, deadline=None)
    @given(
        arity=st.integers(1, 7),
        zeros=st.sampled_from([0.0, 0.3, 0.7]),
        seed=st.integers(0, 10**6),
    )
    def test_matches_brute_force_sum(self, arity, zeros, seed):
        # out_l = sum over k != l of t_k * prod over m != k, l of x_m, along the
        # slot axis 0, with exact zeros in x; each entry within 1e-12 of the sum
        # of its terms' magnitudes
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((arity, 3, 4)) * (rng.uniform(size=(arity, 3, 4)) >= zeros)
        t = rng.standard_normal((arity, 3, 4))
        want = np.zeros_like(x)
        scale = np.zeros_like(x)
        for l, k in itertools.permutations(range(arity), 2):
            term = t[k] * np.prod(np.delete(x, [k, l], axis=0), axis=0)
            want[l] += term
            scale[l] += np.abs(term)
        got = leave_one_out_tangent(x, t)
        assert np.all(np.abs(got - want) <= 1e-12 * scale)

    @settings(max_examples=200, deadline=None)
    @given(
        arity=st.integers(1, 8),
        slab=st.sampled_from([(1,), (3,), (2, 5)]),
        special=st.sampled_from([0.0, 0.3, 0.7]),
        seed=st.integers(0, 10**6),
    )
    def test_matches_stacked_dual_scan_bitwise(self, arity, slab, special, seed):
        # `special` of the entries of x and of t are exact zeros, -0.0, +-inf
        # or NaN, the rest negative and positive; every bit, NaN payloads and
        # signed zeros included, is that of the scan over the stacked pairs
        rng = np.random.default_rng(seed)
        x, t = rng.standard_normal((2, arity) + slab) * 4.0
        for a in (x, t):
            pick = rng.uniform(size=a.shape) < special
            a[pick] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan], size=int(pick.sum()))
        with np.errstate(invalid="ignore", over="ignore"):  # 0 * inf, inf - inf
            got = leave_one_out_tangent(x, t)
            want = dual_scan_tangent(x, t)
        assert got.shape == want.shape == x.shape
        assert got.tobytes() == want.tobytes()
