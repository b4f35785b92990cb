import itertools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrbp import engine
from lrbp.engine import (
    LBPOptions,
    SignViolationWarning,
    ZeroMessageError,
    _dense_messages,
    _normalize,
    exact_marginals,
    run_lbp,
)
from lrbp.graph import DensePayload, FactorBinding, LowRankPayload, build_graph
from lrbp.tensors import CPFactor, cp_expand, cp_random
from reference import (
    MessageState,
    beliefs_from_messages,
    factor_to_var_dense,
    factor_to_var_lowrank,
    init_messages,
    marginalize_product,
    var_to_factor_update,
)


def single_cp_graph(cp, num_vars=None):
    num_vars = num_vars if num_vars is not None else cp.arity
    binding = FactorBinding(tuple(range(cp.arity)), LowRankPayload("p"))
    return build_graph(num_vars, cp.cardinality, [binding], params={"p": cp})


def set_messages(state, g, a, rng):
    """Overwrite the incoming variable-to-factor messages with random positives."""
    for j in g.factors[a].scope:
        m = rng.uniform(0.1, 1.0, size=g.cardinality)
        state.var_to_factor[(j, a)] = m / m.sum()


def marginal_oracle(g, i):
    """Marginal of variable i by explicit state enumeration (variable order reversed
    relative to joint_table's axis order, to stay independent of it)."""
    from lrbp.graph import factor_table

    tables = [factor_table(g, a) for a in range(len(g.factors))]
    p = np.zeros(g.cardinality)
    for state in itertools.product(range(g.cardinality), repeat=g.num_vars):
        assignment = dict(zip(reversed(range(g.num_vars)), state))
        term = 1.0
        if g.unary is not None:
            for v, x in assignment.items():
                term *= g.unary[v][x]
        for a, binding in enumerate(g.factors):
            term *= tables[a][tuple(assignment[v] for v in binding.scope)]
        p[assignment[i]] += term
    return p / p.sum()


def random_tree_graph(rng, max_vars=12, max_arity=5, lowrank_prob=0.5):
    """A random tree-structured factor graph: every factor joins fresh
    variables to one existing variable, so the bipartite graph is acyclic."""
    num_vars = int(rng.integers(2, max_vars + 1))
    d = int(rng.integers(2, 4))
    bindings = []
    params = {}
    attached = [0]
    remaining = list(range(1, num_vars))
    fid = 0
    while remaining:
        take = int(rng.integers(1, min(max_arity - 1, len(remaining)) + 1))
        fresh, remaining = remaining[:take], remaining[take:]
        anchor = int(rng.choice(attached))
        scope = (anchor, *fresh)
        if rng.uniform() < lowrank_prob:
            pid = f"p{fid}"
            params[pid] = cp_random(len(scope), d, int(rng.integers(1, 9)), seed=int(rng.integers(1e6)))
            bindings.append(FactorBinding(scope, LowRankPayload(pid)))
        else:
            bindings.append(FactorBinding(scope, DensePayload(rng.uniform(0.1, 1.0, size=(d,) * len(scope)))))
        attached.extend(fresh)
        fid += 1
    unary = rng.uniform(0.1, 1.0, size=(num_vars, d))
    return build_graph(num_vars, d, bindings, unary=unary, params=params)


class TestInitMessages:
    def test_uniform_chain(self):
        g = build_graph(3, 2, [FactorBinding((0, 1), DensePayload(np.ones((2, 2)))),
                               FactorBinding((1, 2), DensePayload(np.ones((2, 2))))])
        state = init_messages(g)
        for vec in list(state.var_to_factor.values()) + list(state.factor_to_var.values()):
            assert np.array_equal(vec, [0.5, 0.5])

    def test_uniform_d4(self):
        cp = cp_random(2, 4, 3, seed=0)
        state = init_messages(single_cp_graph(cp))
        for vec in state.var_to_factor.values():
            assert np.array_equal(vec, [0.25, 0.25, 0.25, 0.25])

    def test_empty_factor_list(self):
        g = build_graph(2, 2, [], unary=np.ones((2, 2)))
        state = init_messages(g)
        assert state.var_to_factor == {} and state.factor_to_var == {}


class TestVarToFactor:
    def test_sole_factor_no_unary_is_uniform(self):
        g = build_graph(1, 2, [FactorBinding((0,), DensePayload(np.array([3.0, 1.0])))])
        state = init_messages(g)
        assert np.array_equal(var_to_factor_update(state, g, 0, 0), [0.5, 0.5])

    def test_uniform_is_identity_under_normalization(self):
        coupling = DensePayload(np.ones((2, 2)))
        g = build_graph(
            3, 2, [FactorBinding((0, 1), coupling), FactorBinding((0, 2), coupling),
                   FactorBinding((0, 1), coupling)]
        )
        state = init_messages(g)
        state.factor_to_var[(1, 0)] = np.array([0.8, 0.2])
        state.factor_to_var[(2, 0)] = np.array([0.5, 0.5])
        np.testing.assert_allclose(var_to_factor_update(state, g, 0, 0), [0.8, 0.2], atol=1e-15)

    def test_matches_direct_product_oracle(self):
        coupling = DensePayload(np.ones((3, 3)))
        g = build_graph(
            2, 3,
            [FactorBinding((0, 1), coupling) for _ in range(4)],
            unary=np.random.default_rng(0).uniform(0.2, 1.0, size=(2, 3)),
        )
        state = init_messages(g)
        rng = np.random.default_rng(5)
        for a in range(1, 4):
            state.factor_to_var[(a, 0)] = rng.uniform(0.1, 1.0, size=3)
        got = var_to_factor_update(state, g, 0, 0)
        expected = g.unary[0] * np.prod(
            [state.factor_to_var[(a, 0)] for a in range(1, 4)], axis=0
        )
        expected = expected / expected.sum()
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_zero_product_raises(self):
        coupling = DensePayload(np.ones((2, 2)))
        g = build_graph(2, 2, [FactorBinding((0, 1), coupling), FactorBinding((0, 1), coupling)])
        state = init_messages(g)
        state.factor_to_var[(1, 0)] = np.array([0.0, 0.0])
        with pytest.raises(ZeroMessageError, match="0->0"):
            var_to_factor_update(state, g, 0, 0)


class TestFactorToVarDense:
    def test_identity_coupling_copies_message(self):
        g = build_graph(2, 2, [FactorBinding((0, 1), DensePayload(np.eye(2)))])
        state = init_messages(g)
        state.var_to_factor[(1, 0)] = np.array([1.0, 0.0])
        np.testing.assert_allclose(factor_to_var_dense(state, g, 0, 0), [1.0, 0.0])

    def test_all_ones_factor_is_uninformative(self):
        g = build_graph(2, 3, [FactorBinding((0, 1), DensePayload(np.ones((3, 3))))])
        state = init_messages(g)
        state.var_to_factor[(1, 0)] = np.array([0.7, 0.2, 0.1])
        np.testing.assert_allclose(factor_to_var_dense(state, g, 0, 0), np.ones(3) / 3)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(30)
        table = rng.uniform(size=(2, 2, 2, 2))
        g = build_graph(4, 2, [FactorBinding((0, 1, 2, 3), DensePayload(table))])
        state = init_messages(g)
        set_messages(state, g, 0, rng)
        for pos, i in enumerate(g.factors[0].scope):
            got = factor_to_var_dense(state, g, 0, i)
            expected = np.zeros(2)
            for idx in itertools.product(range(2), repeat=4):
                term = table[idx]
                for k, j in enumerate(g.factors[0].scope):
                    if j != i:
                        term *= state.var_to_factor[(j, 0)][idx[k]]
                expected[idx[pos]] += term
            np.testing.assert_allclose(got, expected / expected.sum(), atol=1e-12)


class TestFactorToVarLowRank:
    def test_rank1_uninformative(self):
        w = np.ones((2, 1))
        cp = CPFactor(2, 2, 1, (w, w))
        g = single_cp_graph(cp)
        state = init_messages(g)
        np.testing.assert_allclose(factor_to_var_lowrank(state, g, 0, 0), [0.5, 0.5])

    def test_pairwise_equals_dense(self):
        cp = cp_random(2, 3, 4, seed=3)
        g = single_cp_graph(cp)
        state = init_messages(g)
        set_messages(state, g, 0, np.random.default_rng(9))
        for i in (0, 1):
            lr = factor_to_var_lowrank(state, g, 0, i)
            dn = factor_to_var_dense(state, g, 0, i)
            np.testing.assert_allclose(lr, dn, atol=1e-12)

    def test_high_order_equals_dense_every_slot(self):
        # the central correctness check of the low-rank update
        cp = cp_random(6, 4, 32, seed=42)
        g = single_cp_graph(cp)
        state = init_messages(g)
        set_messages(state, g, 0, np.random.default_rng(43))
        for i in range(6):
            lr = factor_to_var_lowrank(state, g, 0, i)
            dn = factor_to_var_dense(state, g, 0, i)
            assert np.max(np.abs(lr - dn)) / np.max(np.abs(dn)) < 1e-10

    def test_mixed_sign_weights_warn(self):
        w0 = np.array([[1.0, -0.5], [0.5, 1.0]])
        w1 = np.array([[1.0, 1.0], [0.2, -2.0]])
        cp = CPFactor(2, 2, 2, (w0, w1))
        g = single_cp_graph(cp)
        state = init_messages(g)
        state.var_to_factor[(1, 0)] = np.array([0.05, 0.95])
        with pytest.warns(SignViolationWarning):
            factor_to_var_lowrank(state, g, 0, 0)

    @settings(max_examples=40, deadline=None)
    @given(
        arity=st.integers(2, 8),
        d=st.sampled_from([2, 3, 4]),
        rank=st.integers(1, 64),
        seed=st.integers(0, 10**6),
    )
    def test_lowrank_dense_equivalence_property(self, arity, d, rank, seed):
        cp = cp_random(arity, d, rank, seed=seed)
        g = single_cp_graph(cp)
        state = init_messages(g)
        set_messages(state, g, 0, np.random.default_rng(seed + 1))
        i = seed % arity
        lr = factor_to_var_lowrank(state, g, 0, i)
        dn = factor_to_var_dense(state, g, 0, i)
        assert np.max(np.abs(lr - dn)) / np.max(np.abs(dn)) < 1e-10


class TestRunLBP:
    def test_single_variable_unary(self):
        g = build_graph(1, 2, [], unary=[[2.0, 6.0]])
        result = run_lbp(g)
        np.testing.assert_allclose(result.beliefs, [[0.25, 0.75]])
        assert result.converged and result.iterations_used == 1

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6), damping=st.sampled_from([0.0, 0.3]))
    def test_tree_matches_exact_marginals(self, seed, damping):
        g = random_tree_graph(np.random.default_rng(seed))
        got = run_lbp(g, LBPOptions(max_iters=100, tol=1e-12, damping=damping))
        assert got.converged
        want = exact_marginals(g)
        np.testing.assert_allclose(got.beliefs, want.beliefs, atol=1e-8)

    def test_loopy_lowrank_matches_dense_schedule(self):
        rng = np.random.default_rng(55)
        cp = cp_random(4, 2, 6, seed=56)
        bindings = [
            FactorBinding((0, 1, 2, 3), LowRankPayload("p")),
            FactorBinding((0, 4), DensePayload(rng.uniform(0.2, 1.0, size=(2, 2)))),
            FactorBinding((3, 4, 5), DensePayload(rng.uniform(0.2, 1.0, size=(2, 2, 2)))),
            FactorBinding((2, 5), DensePayload(rng.uniform(0.2, 1.0, size=(2, 2)))),
        ]
        unary = rng.uniform(0.2, 1.0, size=(6, 2))
        g = build_graph(6, 2, bindings, unary=unary, params={"p": cp})
        dense_bindings = [FactorBinding((0, 1, 2, 3), DensePayload(cp_expand(cp)))] + bindings[1:]
        g_dense = build_graph(6, 2, dense_bindings, unary=unary)
        opts = LBPOptions(max_iters=300, tol=1e-12)
        lr = run_lbp(g, opts)
        dn = run_lbp(g_dense, opts)
        assert lr.converged and dn.converged
        np.testing.assert_allclose(lr.beliefs, dn.beliefs, atol=1e-9)

    def test_damping_zero_is_bitwise_undamped(self):
        rng = np.random.default_rng(60)
        g = random_tree_graph(rng)
        a = run_lbp(g, LBPOptions(max_iters=20, tol=1e-15, damping=0.0))
        b = run_lbp(g, LBPOptions(max_iters=20, tol=1e-15))
        assert np.array_equal(a.beliefs, b.beliefs)

    def test_damping_converges_same_fixed_point(self):
        rng = np.random.default_rng(61)
        g = random_tree_graph(rng)
        a = run_lbp(g, LBPOptions(max_iters=500, tol=1e-12, damping=0.4))
        b = run_lbp(g, LBPOptions(max_iters=500, tol=1e-12))
        assert a.converged
        np.testing.assert_allclose(a.beliefs, b.beliefs, atol=1e-8)

    def test_messages_normalized_and_trace_collected(self):
        rng = np.random.default_rng(64)
        g = random_tree_graph(rng)
        result = run_lbp(g, LBPOptions(max_iters=50, tol=1e-10))
        assert result.trace is not None and len(result.trace) == result.iterations_used
        deltas = [d for _, d in result.trace]
        assert deltas[-1] < 1e-10
        assert np.allclose(result.beliefs.sum(axis=1), 1.0, atol=1e-12)

    def test_max_iters_zero_reports_unconverged(self):
        g = build_graph(2, 2, [FactorBinding((0, 1), DensePayload(np.ones((2, 2))))])
        result = run_lbp(g, LBPOptions(max_iters=0))
        assert not result.converged and result.iterations_used == 0
        np.testing.assert_allclose(result.beliefs, 0.5)

    def test_hard_contradiction_raises_zero_message(self):
        # XOR-style contradictory hard constraints drive a product to zero
        eq = DensePayload(np.eye(2))
        neq = DensePayload(1.0 - np.eye(2))
        g = build_graph(2, 2, [FactorBinding((0, 1), eq), FactorBinding((0, 1), neq)],
                        unary=[[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ZeroMessageError):
            run_lbp(g, LBPOptions(max_iters=50))

    def test_zero_message_names_first_edge_without_runtime_warnings(self):
        eq = DensePayload(np.eye(2))
        neq = DensePayload(1.0 - np.eye(2))
        g = build_graph(2, 2, [FactorBinding((0, 1), eq), FactorBinding((0, 1), neq)],
                        unary=[[1.0, 0.0], [1.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ZeroMessageError, match=r"^message 0->0 normalized to zero mass$"):
                run_lbp(g, LBPOptions(max_iters=50))

    def test_infinite_unary_raises_non_finite_without_runtime_warnings(self):
        g = build_graph(3, 2, [FactorBinding((0, 1), DensePayload(np.eye(2))),
                               FactorBinding((1, 2), DensePayload(1.0 - np.eye(2)))],
                        unary=[[1.0, 1.0], [np.inf, 1.0], [1.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(FloatingPointError,
                               match=r"^non-finite message \(1, 0\) at iteration 1$"):
                run_lbp(g)

    def test_infinite_cp_weight_raises_non_finite_without_runtime_warnings(self):
        # the variable-to-factor messages of iteration 1 are finite and only the
        # low-rank factor's outgoing ones are not: the first of them is named
        w = cp_random(3, 2, 2, seed=70).weights.copy()
        w[1, 0, 1] = np.inf
        cp = CPFactor(3, 2, 2, w)
        g = build_graph(4, 2, [FactorBinding((0, 1), DensePayload([[1.0, 0.5], [0.5, 1.0]])),
                               FactorBinding((1, 2, 3), LowRankPayload("p"))], params={"p": cp})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(FloatingPointError,
                               match=r"^non-finite message \(1, 1\) at iteration 1$"):
                run_lbp(g)

    def test_overflowing_row_sum_is_scaled_without_runtime_warnings(self):
        # every message of the uniform 1.5e308 table is finite, but its sum is not
        g = build_graph(2, 2, [FactorBinding((0, 1), DensePayload(np.full((2, 2), 1.5e308)))])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = run_lbp(g)
        assert result.converged
        assert np.array_equal(result.beliefs, np.full((2, 2), 0.5))

    def test_normalize_scales_only_rows_whose_sum_overflows(self):
        raw = np.array([[1.5e308, 1.5e308, 0.0], [1.0, 3.0, 0.5], [np.inf, 1.0, 1.0],
                        [1.7e308, 1e308, 1e300]])
        with np.errstate(over="ignore", invalid="ignore"):
            got = _normalize(raw, "row {}", range(4))
        assert np.array_equal(got[0], [0.5, 0.5, 0.0])
        assert got[1].tobytes() == (raw[1] / raw[1].sum()).tobytes()
        assert np.isnan(got[2]).any()
        scaled = raw[3] / 1.7e308
        assert got[3].tobytes() == (scaled / scaled.sum()).tobytes()

    def test_mixed_sign_weights_warn_once_per_run(self):
        w0 = np.array([[1.0, -0.5], [0.5, 1.0]])
        w1 = np.array([[1.0, 1.0], [0.2, -2.0]])
        cp = CPFactor(2, 2, 2, (w0, w1))
        g = build_graph(3, 2, [FactorBinding((0, 1), LowRankPayload("p")),
                               FactorBinding((1, 2), LowRankPayload("p"))], params={"p": cp})
        with warnings.catch_warnings(record=True) as records:
            warnings.simplefilter("always")
            result = run_lbp(g)
        assert result.iterations_used == 3
        assert len(records) == 1 and records[0].category is SignViolationWarning
        # 4 messages in iteration 1 and 3 in each later one; the worst is 0->1's -0.35
        assert str(records[0].message).startswith(
            "10 low-rank messages had negative entries (min -3.500e-01, first 0->0)"
        )

    def test_invalid_options_rejected(self):
        g = build_graph(1, 2, [], unary=[[1.0, 1.0]])
        with pytest.raises(ValueError, match="tol"):
            run_lbp(g, LBPOptions(tol=0.0))
        with pytest.raises(ValueError, match="damping"):
            run_lbp(g, LBPOptions(damping=1.0))
        with pytest.raises(ValueError, match="max_iters must be >= 0, got -3"):
            run_lbp(g, LBPOptions(max_iters=-3))

    @pytest.mark.parametrize("d", range(2, 10))
    def test_normalize_matches_numpy_sum(self, d):
        # row totals are column adds: np.sum's order below 8 columns, so
        # bitwise there even with cancellation; pairwise sums differ from 8 on
        rng = np.random.default_rng(90 + d)
        raw = rng.uniform(size=(400, d)) * 10.0 ** rng.integers(-3, 4, size=(400, d))
        mixed = raw * rng.choice([-1.0, 1.0], size=raw.shape)
        for x in (raw, mixed) if d <= 7 else (raw,):
            got, want = _normalize(x, "row {}", range(400)), x / x.sum(axis=-1, keepdims=True)
            if d <= 7:
                assert got.tobytes() == want.tobytes()
            else:
                assert np.max(np.abs(got - want)) <= 1e-15


def random_loopy_graph(seed, d, specs, isolated):
    """Factors of the given (arity, rank, lowrank) specs over 5 shared
    variables, plus `isolated` variables of degree 0."""
    rng = np.random.default_rng(seed)
    bindings, params = [], {}
    for a, (arity, rank, lowrank) in enumerate(specs):
        scope = tuple(int(v) for v in rng.choice(5, size=arity, replace=False))
        if lowrank:
            params[f"p{a}"] = cp_random(arity, d, rank, seed=int(rng.integers(1e6)))
            bindings.append(FactorBinding(scope, LowRankPayload(f"p{a}")))
        else:
            bindings.append(FactorBinding(scope, DensePayload(rng.uniform(0.1, 1.0, size=(d,) * arity))))
    unary = rng.uniform(0.1, 1.0, size=(5 + isolated, d))
    return build_graph(5 + isolated, d, bindings, unary=unary, params=params)


def reference_lbp(g, opts):
    """Flooding LBP one message at a time through the dict-layout API;
    returns (beliefs, iterations_used, converged)."""
    state = init_messages(g)
    delta, iteration = math.inf, 0

    def damp(new, old):
        if not opts.damping:
            return new
        return {k: (1.0 - opts.damping) * v + opts.damping * old[k] for k, v in new.items()}

    for iteration in range(1, opts.max_iters + 1):
        v2f = {(i, a): var_to_factor_update(state, g, i, a) for i, a in state.var_to_factor}
        v2f = damp(v2f, state.var_to_factor)
        half = MessageState(v2f, state.factor_to_var, state.var_factors)
        f2v = {}
        for a, i in state.factor_to_var:
            dense_payload = isinstance(g.factors[a].payload, DensePayload)
            update = factor_to_var_dense if dense_payload else factor_to_var_lowrank
            f2v[(a, i)] = update(half, g, a, i)
        f2v = damp(f2v, state.factor_to_var)
        delta = max(float(np.max(np.abs(v - old[k])))
                    for new, old in ((v2f, state.var_to_factor), (f2v, state.factor_to_var))
                    for k, v in new.items())
        state = MessageState(v2f, f2v, state.var_factors)
        if delta < opts.tol:
            break
    return beliefs_from_messages(g, state), iteration, delta < opts.tol


loopy_graphs = dict(
    seed=st.integers(0, 10**6),
    d=st.integers(2, 4),
    specs=st.lists(
        st.tuples(st.integers(1, 5), st.integers(1, 8), st.booleans()), min_size=1, max_size=7
    ),
    isolated=st.integers(0, 2),
    damping=st.sampled_from([0.0, 0.3]),
)


class TestEdgeLayout:
    """run_lbp's batched edge-array sweeps against the one-message API."""

    @settings(max_examples=40, deadline=None)
    @given(**loopy_graphs)
    def test_matches_reference_loop(self, seed, d, specs, isolated, damping):
        g = random_loopy_graph(seed, d, specs, isolated)
        opts = LBPOptions(max_iters=40, tol=1e-10, damping=damping)
        got = run_lbp(g, opts)
        beliefs, iterations, converged = reference_lbp(g, opts)
        assert got.iterations_used == iterations and got.converged == converged
        assert np.max(np.abs(got.beliefs - beliefs)) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(**loopy_graphs)
    def test_factor_order_and_repeat_invariance(self, seed, d, specs, isolated, damping):
        g = random_loopy_graph(seed, d, specs, isolated)
        opts = LBPOptions(max_iters=40, tol=1e-10, damping=damping)
        base = run_lbp(g, opts)
        assert np.array_equal(run_lbp(g, opts).beliefs, base.beliefs)
        perm = np.random.default_rng(seed + 1).permutation(len(g.factors))
        permuted = build_graph(g.num_vars, d, [g.factors[a] for a in perm],
                               unary=g.unary, params=g.params)
        assert np.max(np.abs(run_lbp(permuted, opts).beliefs - base.beliefs)) <= 1e-12
        # relabel variable v as vperm[v]: the degree buckets are keyed by label
        vperm = np.random.default_rng(seed + 2).permutation(g.num_vars)
        unary = np.empty_like(g.unary)
        unary[vperm] = g.unary
        relabelled = build_graph(g.num_vars, d, [
            FactorBinding(tuple(int(vperm[v]) for v in b.scope), b.payload) for b in g.factors
        ], unary=unary, params=g.params)
        got = run_lbp(relabelled, opts)
        assert got.iterations_used == base.iterations_used
        assert np.max(np.abs(got.beliefs[vperm] - base.beliefs)) <= 1e-12

    @pytest.mark.parametrize("damping", [0.0, 0.3])
    def test_hub_longer_than_its_slab_matches_reference_loop(self, damping):
        # the hub's degree bucket is (12, 1) edges over d = 3 states, so its
        # leave-one-out product takes the cumprod branch, not the slab scan
        rng = np.random.default_rng(71)
        d, leaves = 3, 12
        bindings, params = [], {}
        for i in range(1, leaves + 1):
            if i % 2:
                params[f"p{i}"] = cp_random(2, d, 3, seed=int(rng.integers(1e6)))
                bindings.append(FactorBinding((0, i), LowRankPayload(f"p{i}")))
            else:
                bindings.append(FactorBinding((i, 0), DensePayload(rng.uniform(0.1, 1.0, size=(d, d)))))
        g = build_graph(leaves + 1, d, bindings, unary=rng.uniform(0.1, 1.0, size=(leaves + 1, d)),
                        params=params)
        hub = [edges for vs, edges in g.layout.buckets if vs.tolist() == [0]]
        assert len(hub) == 1 and hub[0].shape == (leaves, 1) and leaves > d
        opts = LBPOptions(max_iters=40, tol=1e-10, damping=damping)
        got = run_lbp(g, opts)
        beliefs, iterations, converged = reference_lbp(g, opts)
        assert got.iterations_used == iterations and got.converged == converged
        assert np.max(np.abs(got.beliefs - beliefs)) <= 1e-12

    def test_layout_built_once_and_read_only(self, monkeypatch):
        from lrbp import graph
        from lrbp.neural import HiddenStates, forward_stack, graph_slot_ids, init_layer_params

        builds, layout_type = [], graph.EdgeLayout

        def counting(**fields):
            builds.append(1)
            return layout_type(**fields)

        monkeypatch.setattr(graph, "EdgeLayout", counting)
        g = random_loopy_graph(3, 3, [(2, 2, True), (3, 4, True), (4, 1, True)], isolated=1)
        run_lbp(g)
        p = init_layer_params(graph_slot_ids(g), d_h=3, rank=2)
        _, tapes = forward_stack(HiddenStates(np.ones((g.num_vars, 3))), g, p, layers=3)
        assert len(builds) == 1 and all(t.graph is g for t in tapes)
        lay = g.layout
        arrays = [lay.var, lay.fac, g.slots.slot, *(x for group in lay.lowrank + lay.dense
                                                     + lay.buckets + g.slots.groups for x in group),
                  lay.bucket_edges, lay.block_edges, lay.to_buckets, lay.to_blocks,
                  *g.cp_stacks.values(), *g.cp_blocks]
        assert not any(x.flags.writeable for x in arrays)

    @pytest.mark.parametrize("damping", [0.0, 0.3])
    def test_shared_and_unused_params_match_reference_loop(self, damping):
        # arity 3 has CP ranks 2 and 4 and a dense block; params "a" and "c"
        # are shared, so those blocks gather their rows; the arity-2 block's rows
        # 1 and 2 are consecutive, so it views its stack. "u2" and "u3" are
        # unused, and "u5" has another cardinality.
        rng = np.random.default_rng(91)
        d, num_vars = 3, 9
        params = {pid: cp_random(n, d, r, seed=int(rng.integers(1e6)))
                  for pid, n, r in [("u3", 3, 2), ("a", 3, 2), ("b", 3, 2), ("c", 3, 4),
                                    ("u2", 2, 2), ("e", 2, 2), ("f", 2, 2)]}
        params["u5"] = cp_random(3, 5, 2, seed=92)
        kinds = ["a", "c", "dense", "b", "e", "a", "dense", "f", "c", "b"]
        bindings = [FactorBinding(tuple(rng.choice(num_vars, size=2 if k in "ef" else 3,
                                                   replace=False).tolist()),
                                  DensePayload(rng.uniform(0.1, 1.0, size=(d,) * 3)) if k == "dense"
                                  else LowRankPayload(k)) for k in kinds]
        g = build_graph(num_vars, d, bindings, unary=rng.uniform(0.1, 1.0, size=(num_vars, d)),
                        params=params)
        lay = g.layout
        assert [(shape, rows if isinstance(rows, slice) else rows.tolist())
                for shape, rows in lay.lowrank_rows] == [
            ((2, 3, 2), slice(1, 3)), ((3, 3, 2), [1, 2, 1, 2]), ((3, 3, 4), [0, 0])]
        for (ids, _), (shape, rows), w in zip(lay.lowrank, lay.lowrank_rows, g.cp_blocks):
            want = np.stack([params[g.factors[a].payload.param_id].weights for a in ids], axis=1)
            assert w.tobytes() == want.tobytes() and w.shape == want.shape
            assert np.shares_memory(w, g.cp_stacks[shape]) == isinstance(rows, slice)
        opts = LBPOptions(max_iters=60, tol=1e-10, damping=damping)
        got = run_lbp(g, opts)
        beliefs, iterations, converged = reference_lbp(g, opts)
        assert converged and got.converged and got.iterations_used == iterations
        assert np.max(np.abs(got.beliefs - beliefs)) <= 1e-12

    def test_second_solve_reuses_cp_blocks_and_stacks_nothing(self, monkeypatch):
        g = random_loopy_graph(5, 3, [(2, 2, True), (3, 4, True), (2, 2, True), (3, 1, False)],
                               isolated=1)
        first = run_lbp(g)
        blocks = g.cp_blocks
        assert len(blocks) == 2 and not any(w.flags.writeable for w in blocks)

        def stacking(*args, **kwargs):
            raise AssertionError("a second solve stacked CP weights")

        for module, name in ((np, "stack"), (np, "array"), (engine, "factor_cp")):
            monkeypatch.setattr(module, name, stacking)
        again = run_lbp(g)
        assert g.cp_blocks is blocks
        assert again.beliefs.tobytes() == first.beliefs.tobytes()


def reordered_graph(unary=((1.0, 1.0),) * 4, table=None, weights=None, lowrank0=None):
    """Factors 0 (0, 2) dense, or low-rank of rank 3 with `lowrank0`'s
    weights, 1 (1, 3) low-rank of rank 2 and 2 (0, 3) dense, over d = 2:
    variables 1 and 2 have degree 1, so they come first in bucket order, and
    factor 1 comes first in block order."""
    rng = np.random.default_rng(93)
    params = {"p1": CPFactor(2, 2, 2, rng.uniform(0.5, 1.0, size=(2, 2, 2)) if weights is None
                             else weights)}
    if lowrank0 is None:
        f0 = DensePayload(rng.uniform(0.5, 1.0, size=(2, 2)) if table is None else table)
    else:
        params["p0"], f0 = CPFactor(2, 2, 3, lowrank0), LowRankPayload("p0")
    bindings = [FactorBinding((0, 2), f0), FactorBinding((1, 3), LowRankPayload("p1")),
                FactorBinding((0, 3), DensePayload(rng.uniform(0.5, 1.0, size=(2, 2))))]
    return build_graph(4, 2, bindings, unary=unary, params=params)


class TestMessageOrders:
    """Errors and warnings name edges in edge order, whatever order the
    half-sweeps keep their messages in."""

    @pytest.mark.parametrize("graph, error, match", [
        # every message out of variables 0 (edges 0, 4) and 1 (edge 2) is zero
        (dict(unary=((0.0, 0.0),) * 2 + ((1.0, 1.0),) * 2), ZeroMessageError,
         r"^message 0->0 normalized to zero mass$"),
        # every message out of factors 0 (edges 0, 1) and 1 (edges 2, 3) is zero
        (dict(table=np.zeros((2, 2)), weights=np.zeros((2, 2, 2))), ZeroMessageError,
         r"^message 0->0 normalized to zero mass$"),
        (dict(unary=((np.inf, 1.0),) * 2 + ((1.0, 1.0),) * 2), FloatingPointError,
         r"^non-finite message \(0, 0\) at iteration 1$"),
        (dict(table=[[np.inf, 1.0], [1.0, 1.0]], weights=np.full((2, 2, 2), np.inf)),
         FloatingPointError, r"^non-finite message \(0, 0\) at iteration 1$"),
    ])
    def test_errors_name_the_first_edge(self, graph, error, match):
        g = reordered_graph(**graph)
        lay = g.layout
        assert lay.bucket_edges.tolist() == [2, 1, 0, 3, 4, 5]
        assert lay.block_edges.tolist() == [2, 3, 0, 4, 1, 5]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(error, match=match):
                run_lbp(g)

    def test_sign_warning_names_the_first_edge(self):
        # both low-rank factors send negative entries; factor 0's rank-3 block
        # comes after factor 1's rank-2 block
        w0 = np.array([[[1.0, -0.5, 0.0], [0.5, 1.0, 0.0]], [[1.0, 1.0, 0.0], [0.2, -2.0, 0.0]]])
        w1 = w0[:, :, :2].copy()
        g = reordered_graph(weights=w1, lowrank0=w0)
        assert g.layout.block_edges.tolist() == [2, 3, 0, 1, 4, 5]
        opts = LBPOptions(max_iters=1)
        with warnings.catch_warnings(record=True) as records:
            warnings.simplefilter("always")
            run_lbp(g, opts)
            reference_lbp(g, opts)
        got, *per_message = [str(r.message) for r in records]
        first = per_message[0].split()[2]  # "low-rank message a->i has ..."
        assert first == "0->0" and f"first {first})" in got


class TestDenseMessages:
    """run_lbp's dense kernel against `marginalize_product`, the oracle."""

    @settings(max_examples=60, deadline=None)
    @given(
        num=st.integers(1, 9),
        arity=st.integers(1, 7),
        d=st.integers(2, 4),
        zeros=st.sampled_from([0.0, 0.5, 0.9]),
        seed=st.integers(0, 10**6),
    )
    def test_matches_marginalize_product_every_slot(self, num, arity, d, zeros, seed):
        rng = np.random.default_rng(seed)

        def nonnegative(shape):
            return rng.uniform(size=shape) * (rng.uniform(size=shape) >= zeros)

        ts = [nonnegative((d,) * arity) for _ in range(num)]
        m = nonnegative((arity, num, d))
        # chunks of 1 factor, of d factors at arity 1 and at every arity, and the default
        runs = []
        for chunk in (1, d, d**arity, engine._CHUNK):
            with mock.patch.object(engine, "_CHUNK", chunk):
                runs.append(_dense_messages(ts, m))
        got = runs[-1]
        assert got.shape == (arity, num, d)
        assert all(r.tobytes() == got.tobytes() for r in runs)
        for f, t in enumerate(ts):
            for k in range(arity):
                want = marginalize_product(t, list(m[:, f]), keep=k)
                # exact zeros agree, so ZeroMessageError names the same edge
                assert np.array_equal(got[k, f] == 0.0, want == 0.0)
                assert np.max(np.abs(got[k, f] - want)) <= 1e-12 * want.max()

    @pytest.mark.parametrize("chunk", [None, 9])
    @pytest.mark.parametrize("damping", [0.0, 0.3])
    def test_mixed_groups_match_reference_loop(self, damping, chunk):
        # five factors of each arity 1-6 over d = 3, dense and low-rank in turn,
        # with the arities interleaved in factor order
        rng = np.random.default_rng(82)
        d, num_vars = 3, 12
        bindings, params = [], {}
        for j in range(5):
            for n in range(1, 7):
                scope = tuple(rng.choice(num_vars, size=n, replace=False).tolist())
                if j % 2:
                    params[f"p{n}{j}"] = cp_random(n, d, int(rng.integers(1, 5)),
                                                   seed=int(rng.integers(1e6)))
                    bindings.append(FactorBinding(scope, LowRankPayload(f"p{n}{j}")))
                else:
                    bindings.append(FactorBinding(scope, DensePayload(rng.uniform(0.1, 1.0, size=(d,) * n))))
        g = build_graph(num_vars, d, bindings, unary=rng.uniform(0.1, 1.0, size=(num_vars, d)),
                        params=params)
        lay = g.layout
        assert [(edges.shape, ids.size) for ids, edges in lay.dense] == [
            ((n, 3), 3) for n in range(1, 7)]
        # the blocks partition the factors; each holds one kind, one arity and,
        # for CP, one rank, with its columns in factor order, and is read-only
        ids = np.concatenate([ids for ids, _ in lay.lowrank + lay.dense])
        assert np.array_equal(np.sort(ids), np.arange(len(g.factors)))
        for blocks, low in ((lay.lowrank, True), (lay.dense, False)):
            for ids, edges in blocks:
                payloads = [g.factors[a].payload for a in ids]
                assert all(isinstance(p, LowRankPayload) == low for p in payloads)
                assert len({len(g.factors[a].scope) for a in ids}) == 1
                assert not low or len({g.params[p.param_id].rank for p in payloads}) == 1
                assert np.all(np.diff(ids) > 0)
                # column j holds the edges of factor ids[j], in scope order
                assert np.array_equal(edges.T.ravel(), np.flatnonzero(np.isin(lay.fac, ids)))
                assert not ids.flags.writeable and not edges.flags.writeable
        assert len(lay.lowrank) > len(lay.dense)  # some arity has two CP ranks
        opts = LBPOptions(max_iters=60, tol=1e-10, damping=damping)
        with mock.patch.object(engine, "_CHUNK", chunk or engine._CHUNK):
            got = run_lbp(g, opts)
        beliefs, iterations, converged = reference_lbp(g, opts)
        assert converged and got.converged and got.iterations_used == iterations
        assert np.max(np.abs(got.beliefs - beliefs)) <= 1e-12

    @pytest.mark.parametrize("chunk", [None, 1])
    def test_zero_row_of_a_later_dense_factor_names_its_edge(self, chunk):
        # variable 0 is pinned to state 0, so a dense (0, v) factor whose table
        # row 0 is zero sends v an all-zero message; factors 2 and 3 both do,
        # and 2->3, the second edge of factor 2, comes first in edge order
        rng = np.random.default_rng(83)
        d = 3
        blocked = rng.uniform(0.1, 1.0, size=(d, d))
        blocked[0] = 0.0
        bindings = [
            FactorBinding((1, 2), DensePayload(rng.uniform(0.1, 1.0, size=(d, d)))),
            FactorBinding((2, 3), LowRankPayload("p")),
            FactorBinding((0, 3), DensePayload(blocked)),
            FactorBinding((0, 4), DensePayload(blocked)),
        ]
        unary = np.ones((5, d))
        unary[0] = [1.0, 0.0, 0.0]
        g = build_graph(5, d, bindings, unary=unary, params={"p": cp_random(2, d, 2, seed=84)})
        opts = LBPOptions(max_iters=40)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with mock.patch.object(engine, "_CHUNK", chunk or engine._CHUNK):
                with pytest.raises(ZeroMessageError, match=r"^message 2->3 normalized to zero mass$"):
                    run_lbp(g, opts)
            with pytest.raises(ZeroMessageError, match=r"^message 2->3 normalized to zero mass$"):
                reference_lbp(g, opts)

    @pytest.mark.parametrize("damping", [0.0, 0.3])
    def test_run_lbp_leaves_marginalize_product_to_the_oracle(self, damping):
        from lrbp import engine, tensors

        assert not hasattr(engine, "marginalize_product")
        assert not hasattr(tensors, "marginalize_product")
        rng = np.random.default_rng(80)
        bindings = [FactorBinding(tuple(rng.choice(8, size=n, replace=False).tolist()),
                                  DensePayload(rng.uniform(0.1, 1.0, size=(3,) * n)))
                    for n in range(1, 7)]
        g = build_graph(8, 3, bindings, unary=rng.uniform(0.1, 1.0, size=(8, 3)))
        opts = LBPOptions(max_iters=40, tol=1e-10, damping=damping)
        beliefs, iterations, converged = reference_lbp(g, opts)
        got = run_lbp(g, opts)
        assert got.iterations_used == iterations and got.converged == converged
        assert np.max(np.abs(got.beliefs - beliefs)) <= 1e-12


class TestExactMarginals:
    def test_independent_unaries(self):
        g = build_graph(2, 2, [], unary=[[2.0, 2.0], [1.0, 3.0]])
        result = exact_marginals(g)
        np.testing.assert_allclose(result.beliefs, [[0.5, 0.5], [0.25, 0.75]])

    def test_hard_constraint_propagates(self):
        g = build_graph(
            2, 2, [FactorBinding((0, 1), DensePayload(np.eye(2)))],
            unary=[[1.0, 0.0], [0.5, 0.5]],
        )
        result = exact_marginals(g)
        np.testing.assert_allclose(result.beliefs, [[1.0, 0.0], [1.0, 0.0]])

    def test_matches_permuted_enumeration_oracle(self):
        rng = np.random.default_rng(70)
        bindings = [
            FactorBinding((0, 1, 2), DensePayload(rng.uniform(0.1, 1.0, size=(2, 2, 2)))),
            FactorBinding((2, 3), DensePayload(rng.uniform(0.1, 1.0, size=(2, 2)))),
            FactorBinding((4, 1), DensePayload(rng.uniform(0.1, 1.0, size=(2, 2)))),
        ]
        g = build_graph(5, 2, bindings, unary=rng.uniform(0.1, 1.0, size=(5, 2)))
        result = exact_marginals(g)
        assert np.allclose(result.beliefs.sum(axis=1), 1.0, atol=1e-12)
        for i in range(5):
            np.testing.assert_allclose(result.beliefs[i], marginal_oracle(g, i), atol=1e-12)
