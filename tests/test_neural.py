import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrbp import neural
from lrbp.engine import _lowrank_messages
from lrbp.graph import FactorBinding, LowRankPayload, build_graph, factor_cp, factor_slots
from lrbp.neural import (
    HiddenStates,
    LayerParams,
    adam_init,
    adam_step,
    backward_stack,
    forward_stack,
    grad_check,
    graph_slot_ids,
    init_layer_params,
    load_checkpoint,
    lrbp_backward,
    lrbp_forward,
    named_arrays,
    readout,
    replace_arrays,
    save_checkpoint,
    train_step,
)
from lrbp.tensors import cp_random


def lowrank_graph(num_vars, scopes, slot_lists=None, d=2, rank=2, seed=0):
    """Graph whose factors are low-rank stubs; the CP values are irrelevant
    to the neural layer, only scopes and slot ids matter."""
    bindings = []
    params = {}
    for a, scope in enumerate(scopes):
        pid = f"p{a}"
        params[pid] = cp_random(len(scope), d, rank, seed=seed + a)
        slots = tuple(slot_lists[a]) if slot_lists else None
        bindings.append(FactorBinding(tuple(scope), LowRankPayload(pid), slots))
    return build_graph(num_vars, d, bindings, params=params)


def slot_matrix(p, sid, w):
    """Slot `sid`'s (d_h, R) matrix `w` ("w_in" or "w_out"), a view of its row
    of p's stacked slot array."""
    return p.arrays[f"slot/{w}"][p.slot_ids.index(sid)]


def zero_mlp_output(p):
    named = named_arrays(p)
    named["mlp/w2"] = np.zeros_like(named["mlp/w2"])
    named["mlp/b2"] = np.zeros_like(named["mlp/b2"])
    return replace_arrays(p, named)


def identity_mlp(p):
    """MLP(x) = relu(x) - relu(-x) = x, requires d_mlp = 2 * d_h."""
    d_h = p.d_h
    named = named_arrays(p)
    named["mlp/w1"] = np.vstack([np.eye(d_h), -np.eye(d_h)])
    named["mlp/b1"] = np.zeros(2 * d_h)
    named["mlp/w2"] = np.hstack([np.eye(d_h), -np.eye(d_h)])
    named["mlp/b2"] = np.zeros(d_h)
    return replace_arrays(p, named)


def reference_agg(g, p, h):
    """Each node's summed messages, by a loop over factors and their slots."""
    expected = np.zeros_like(h)
    for a, binding in enumerate(g.factors):
        slots = factor_slots(g, a)
        us = [slot_matrix(p, sid, "w_in").T @ h[j] for sid, j in zip(slots, binding.scope)]
        for k, (sid, j) in enumerate(zip(slots, binding.scope)):
            others = np.array([us[m] for m in range(len(us)) if m != k]).reshape(-1, p.rank)
            expected[j] += slot_matrix(p, sid, "w_out") @ np.prod(others, axis=0)
    return expected


class TestForward:
    def test_residual_identity_with_zero_output_layer(self):
        g = lowrank_graph(3, [(0, 1), (1, 2)])
        p = zero_mlp_output(init_layer_params(graph_slot_ids(g), d_h=4, rank=2, seed=1))
        h = HiddenStates(np.random.default_rng(2).standard_normal((3, 4)))
        out, _ = lrbp_forward(h, g, p)
        assert np.array_equal(out.values, h.values)

    def test_two_node_hand_expansion(self):
        # single rank-1 factor, both slot matrices the first basis column:
        # the pre-MLP message into node 0 is h_1[0] * e_1, and with an
        # identity MLP the update is exactly h + that message
        g = lowrank_graph(2, [(0, 1)], slot_lists=[("s0", "s1")])
        d_h = 3
        e1 = np.zeros((d_h, 1))
        e1[0, 0] = 1.0
        p = init_layer_params(["s0", "s1"], d_h=d_h, rank=1, seed=0)
        named = named_arrays(p)
        named["slot/w_in"] = np.stack([e1, e1])
        named["slot/w_out"] = np.stack([e1, e1])
        p = identity_mlp(replace_arrays(p, named))
        h = HiddenStates(np.array([[0.3, -0.7, 0.2], [0.9, 0.4, -0.1]]))
        out, tape = lrbp_forward(h, g, p)
        expected_msg_0 = h.values[1, 0] * e1[:, 0]
        expected_msg_1 = h.values[0, 0] * e1[:, 0]
        np.testing.assert_allclose(tape.agg[0], expected_msg_0, atol=1e-15)
        np.testing.assert_allclose(tape.agg[1], expected_msg_1, atol=1e-15)
        np.testing.assert_allclose(out.values, h.values + np.vstack([expected_msg_0, expected_msg_1]), atol=1e-15)

    def test_deterministic(self):
        g = lowrank_graph(4, [(0, 1, 2), (2, 3)])
        p = init_layer_params(graph_slot_ids(g), d_h=5, rank=3, seed=7)
        h = HiddenStates(np.random.default_rng(8).standard_normal((4, 5)))
        a, _ = lrbp_forward(h, g, p)
        b, _ = lrbp_forward(h, g, p)
        assert np.array_equal(a.values, b.values)

    def test_unmapped_slot_rejected(self):
        g = lowrank_graph(2, [(0, 1)], slot_lists=[("sa", "sb")])
        p = init_layer_params(["sa"], d_h=2, rank=2)
        h = HiddenStates(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="unmapped slot id 'sb'"):
            lrbp_forward(h, g, p)
        # the first unmapped edge in edge order is named, not the first id in sorted order
        g = lowrank_graph(3, [(0, 1), (1, 2)], slot_lists=[("sa", "zz"), ("yy", "sa")])
        with pytest.raises(ValueError, match="factor 0: unmapped slot id 'zz'"):
            lrbp_forward(HiddenStates(np.zeros((3, 2))), g, p)
        # ids match exactly: a trailing NUL is part of the id
        g = lowrank_graph(2, [(0, 1)], slot_lists=[("a", "a")])
        with pytest.raises(ValueError, match="factor 0: unmapped slot id 'a'"):
            lrbp_forward(h, g, init_layer_params(["a\x00"], d_h=2, rank=2))

    def test_non_finite_input_rejected(self):
        g = lowrank_graph(2, [(0, 1)])
        p = init_layer_params(graph_slot_ids(g), d_h=2, rank=2)
        with pytest.raises(FloatingPointError):
            lrbp_forward(HiddenStates(np.array([[np.nan, 0.0], [0.0, 0.0]])), g, p)

    def test_overflow_raises_only_floating_point_error(self):
        # arity 6 and 7 take the longest prefix and suffix products
        for num_vars, scopes in ((4, [(0, 1, 2), (2, 3)]), (6, [tuple(range(6))]), (7, [tuple(range(7))])):
            g = lowrank_graph(num_vars, scopes)
            p = init_layer_params(graph_slot_ids(g), d_h=4, rank=3, seed=4)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(FloatingPointError, match="non-finite message from factor 0"):
                    lrbp_forward(HiddenStates(np.full((num_vars, 4), 1e200)), g, p)

    def test_arity_one_factor_contributes_ones_product(self):
        # empty Hadamard set: message = w_out @ ones(R)
        g = lowrank_graph(1, [(0,)], slot_lists=[("s",)])
        p = zero_mlp_output(init_layer_params(["s"], d_h=3, rank=4, seed=3))
        h = HiddenStates(np.zeros((1, 3)))
        _, tape = lrbp_forward(h, g, p)
        np.testing.assert_allclose(tape.agg[0], slot_matrix(p, "s", "w_out") @ np.ones(4), atol=1e-15)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(11)
        scopes = [(0, 1, 2), (2, 3), (1, 3)]
        slot_lists = [("a", "b", "c"), ("d", "e"), ("f", "g")]
        g = lowrank_graph(4, scopes, slot_lists=slot_lists)
        p = init_layer_params(graph_slot_ids(g), d_h=4, rank=3, seed=12)
        h = rng.standard_normal((4, 4))
        perm = np.array([2, 0, 3, 1])  # node v -> perm[v]
        scopes_p = [tuple(int(perm[v]) for v in s) for s in scopes]
        g_p = lowrank_graph(4, scopes_p, slot_lists=slot_lists)
        h_p = np.empty_like(h)
        h_p[perm] = h
        out, _ = lrbp_forward(HiddenStates(h), g, p)
        out_p, _ = lrbp_forward(HiddenStates(h_p), g_p, p)
        assert np.array_equal(out_p.values[perm], out.values)

    def test_layer_is_the_lowrank_lbp_update(self):
        # with d_h = d, W_in = W_out = the CP weights of each slot and the
        # node states as incoming messages, a node's aggregate is the sum of
        # the unnormalized low-rank factor-to-variable messages into it
        rng = np.random.default_rng(21)
        scopes = [tuple(rng.choice(6, size=n, replace=False)) for n in (2, 3, 4, 2, 4, 3)]
        g = lowrank_graph(6, scopes, d=3, rank=4, seed=22)
        # every factor has its own parameter, so its slots p<a>/k follow in edge order
        p = init_layer_params(g.slots.ids, d_h=3, rank=4)
        named = named_arrays(p)
        named["slot/w_in"] = named["slot/w_out"] = np.concatenate(
            [factor_cp(g, a).weights for a in range(len(scopes))])
        p = replace_arrays(p, named)
        h = rng.uniform(0.1, 1.0, size=(6, 3))
        _, tape = lrbp_forward(HiddenStates(h), g, p)
        expected = np.zeros_like(h)
        for a, scope in enumerate(scopes):
            w = factor_cp(g, a).weights[:, None]
            np.add.at(expected, list(scope), _lowrank_messages(w, h[list(scope)][:, None])[:, 0])
        assert np.max(np.abs(tape.agg - expected)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        arities=st.lists(st.integers(1, 6), max_size=7),
        num_slot_ids=st.integers(1, 5),
        isolated=st.integers(0, 2),
        rank=st.integers(1, 4),
    )
    def test_matches_reference_loop(self, seed, arities, num_slot_ids, isolated, rank):
        # factors over 6 shared nodes plus `isolated` nodes of degree 0; slot
        # ids come from a small pool, so they repeat within and across factors
        rng = np.random.default_rng(seed)
        scopes = [tuple(rng.choice(6, size=n, replace=False)) for n in arities]
        slot_lists = [[f"s{k}" for k in rng.integers(num_slot_ids, size=n)] for n in arities]
        g = lowrank_graph(6 + isolated, scopes, slot_lists=slot_lists)
        p = init_layer_params([f"s{k}" for k in range(num_slot_ids)], d_h=3, rank=rank, seed=seed)
        h = rng.standard_normal((6 + isolated, 3))
        out, tape = lrbp_forward(HiddenStates(h), g, p)
        assert np.max(np.abs(tape.agg - reference_agg(g, p, h)), initial=0.0) <= 1e-12

        perm = rng.permutation(len(scopes))
        g_p = lowrank_graph(6 + isolated, [scopes[a] for a in perm],
                            slot_lists=[slot_lists[a] for a in perm])
        out_p, _ = lrbp_forward(HiddenStates(h), g_p, p)
        assert np.max(np.abs(out_p.values - out.values)) <= 1e-12


def fd_loss_grads(loss_fn, p, eps=1e-6):
    """Central finite differences of loss_fn() w.r.t. every parameter entry."""
    out = {}
    for name, arr in named_arrays(p).items():
        grad = np.zeros(arr.shape)
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + eps
            lp = loss_fn()
            arr[idx] = orig - eps
            lm = loss_fn()
            arr[idx] = orig
            grad[idx] = (lp - lm) / (2 * eps)
        out[name] = grad
    return out


def layer_grads(tape, upstream):
    """One layer's backward into a zeroed table: (parameter grads, input-state grads)."""
    grads = {name: np.zeros_like(a) for name, a in named_arrays(tape.params).items()}
    return grads, lrbp_backward(tape, upstream, grads)


class TestBackward:
    def make_case(self, seed=0):
        g = lowrank_graph(4, [(0, 1, 2), (2, 3), (1, 3)])
        p = init_layer_params(graph_slot_ids(g), d_h=4, rank=3, seed=seed)
        h = HiddenStates(np.random.default_rng(seed + 1).standard_normal((4, 4)))
        return g, p, h

    def test_zero_upstream_gives_zero_grads(self):
        g, p, h = self.make_case()
        _, tape = lrbp_forward(h, g, p)
        grads, dh = layer_grads(tape, np.zeros_like(h.values))
        assert all(np.all(v == 0) for v in grads.values())
        assert np.all(dh == 0)

    def test_backward_adds_into_callers_table(self):
        g, p, h = self.make_case(seed=2)
        _, tape = lrbp_forward(h, g, p)
        up = np.random.default_rng(4).standard_normal(h.values.shape)
        fresh, dh = layer_grads(tape, up)
        table = {name: np.ones_like(a) for name, a in named_arrays(p).items()}
        arrays = dict(table)
        assert np.array_equal(lrbp_backward(tape, up, table), dh)
        for name, a in table.items():
            assert a is arrays[name], name  # added in place, not replaced
            assert np.array_equal(a, 1.0 + fresh[name]), name
        # a stack adds every layer into the same table; no layers adds nothing
        assert backward_stack([], up, table) is up
        assert np.array_equal(backward_stack([tape], up, table), dh)
        for name, a in table.items():
            assert np.array_equal(a, 1.0 + fresh[name] + fresh[name]), name

    def test_first_layer_bias_zero_when_output_layer_zeroed(self):
        g, p, h = self.make_case()
        p = zero_mlp_output(p)
        _, tape = lrbp_forward(h, g, p)
        grads, _ = layer_grads(tape, np.ones_like(h.values))
        assert np.all(grads["mlp/b1"] == 0)

    def test_first_layer_bias_closed_form_and_fd(self):
        # loss = sum of output entries; dL/db1 = sum_i relu'(z_i) * (w2^T 1)
        g, p, h = self.make_case(seed=3)
        _, tape = lrbp_forward(h, g, p)
        grads, _ = layer_grads(tape, np.ones_like(h.values))
        closed = ((tape.z > 0) * (p.arrays["mlp/w2"].T @ np.ones(p.d_h))).sum(axis=0)
        np.testing.assert_allclose(grads["mlp/b1"], closed, atol=1e-12)

        def loss():
            out, _ = lrbp_forward(h, g, p)
            return float(out.values.sum())

        fd = fd_loss_grads(loss, p)
        rel = np.abs(fd["mlp/b1"] - closed) / np.maximum(np.abs(closed), 1e-3)
        assert rel.max() < 1e-5

    def test_all_param_grads_match_fd_single_layer(self):
        g, p, h = self.make_case(seed=5)
        _, tape = lrbp_forward(h, g, p)
        out, _ = lrbp_forward(h, g, p)
        grads, _ = layer_grads(tape, 2.0 * out.values)

        def loss():
            cur, _ = lrbp_forward(h, g, p)
            return float(np.sum(cur.values**2))

        fd = fd_loss_grads(loss, p)
        for name, ana in grads.items():
            rel = np.abs(fd[name] - ana) / np.maximum.reduce(
                [np.abs(fd[name]), np.abs(ana), np.full_like(ana, 1e-3)]
            )
            assert rel.max() < 1e-4, name

    def test_input_state_grads_match_fd(self):
        g, p, h = self.make_case(seed=6)
        _, tape = lrbp_forward(h, g, p)
        out, _ = lrbp_forward(h, g, p)
        _, dh = layer_grads(tape, 2.0 * out.values)
        eps = 1e-6
        vals = h.values
        fd = np.zeros_like(vals)
        for i in range(vals.shape[0]):
            for k in range(vals.shape[1]):
                orig = vals[i, k]
                vals[i, k] = orig + eps
                lp = float(np.sum(lrbp_forward(HiddenStates(vals), g, p)[0].values ** 2))
                vals[i, k] = orig - eps
                lm = float(np.sum(lrbp_forward(HiddenStates(vals), g, p)[0].values ** 2))
                vals[i, k] = orig
                fd[i, k] = (lp - lm) / (2 * eps)
        rel = np.abs(fd - dh) / np.maximum(np.abs(fd), 1e-3)
        assert rel.max() < 1e-4

    def test_shared_slots_accumulate(self):
        # two factors sharing slots == duplicated slots with grads added
        scopes = [(0, 1), (2, 3)]
        g_shared = lowrank_graph(4, scopes, slot_lists=[("x", "y"), ("x", "y")])
        g_split = lowrank_graph(4, scopes, slot_lists=[("x1", "y1"), ("x2", "y2")])
        base = init_layer_params(["x", "y"], d_h=3, rank=2, seed=9)
        p_split = init_layer_params(["x1", "y1", "x2", "y2"], d_h=3, rank=2, seed=9)
        split_named = named_arrays(p_split)
        for mat in ("slot/w_in", "slot/w_out"):
            split_named[mat] = base.arrays[mat][[0, 1, 0, 1]]  # rows x, y, x, y
        p_split = replace_arrays(p_split, split_named)
        h = HiddenStates(np.random.default_rng(10).standard_normal((4, 3)))
        up = np.random.default_rng(11).standard_normal((4, 3))
        _, tape_a = lrbp_forward(h, g_shared, base)
        _, tape_b = lrbp_forward(h, g_split, p_split)
        ga, _ = layer_grads(tape_a, up)
        gb, _ = layer_grads(tape_b, up)
        for mat in ("slot/w_in", "slot/w_out"):
            np.testing.assert_allclose(ga[mat], gb[mat][:2] + gb[mat][2:], atol=1e-12)

    def test_shape_mismatch_rejected(self):
        g, p, h = self.make_case()
        _, tape = lrbp_forward(h, g, p)
        with pytest.raises(ValueError, match="upstream"):
            lrbp_backward(tape, np.zeros((2, 2)), named_arrays(p))


def high_arity_graph():
    """Factors of arity 1 to 6, slot id "d" repeated within one factor, and
    node 7 of degree 0."""
    scopes = [(0,), (1, 2), (2, 3, 4), (0, 3, 5, 6), (1, 2, 4, 5, 6), (0, 1, 3, 4, 5, 6)]
    slot_lists = [("a",), ("b", "c"), ("d", "d", "e"), ("f", "g", "h", "i"),
                  ("j", "k", "l", "m", "n"), ("o", "p", "q", "r", "s", "t")]
    return lowrank_graph(8, scopes, slot_lists=slot_lists)


class TestGradCheck:
    def make_case(self, seed, graph=None):
        g = graph or lowrank_graph(5, [(0, 1, 2), (2, 3, 4), (0, 4)])
        p = init_layer_params(graph_slot_ids(g), d_h=4, rank=3, seed=seed)
        return g, p

    @pytest.mark.parametrize("graph", [None, high_arity_graph()], ids=["arity-2-3", "arity-1-6"])
    def test_default_seeded_stack(self, graph):
        g, p = self.make_case(0, graph)
        result = grad_check(g, p, seed=0, eps=1e-5, layers=3)
        assert result.max_relative_error < 1e-4, result.worst_param

    def test_linear_regime_is_tight(self):
        # push all pre-activations far above 0: locally smooth everywhere
        g, p = self.make_case(1)
        named = named_arrays(p)
        named["mlp/b1"] = np.full_like(named["mlp/b1"], 5.0)
        p = replace_arrays(p, named)
        # With every ReLU on and one layer, the output is affine in each
        # parameter coordinate, so the loss is exactly quadratic along it and
        # the central difference has no truncation error: all of the error is
        # float64 roundoff, which grows as 1/eps. At eps=1e-5 part of it comes
        # from the forward pass itself, and the 1e-3 floor of the relative
        # error's denominator magnifies it on coordinates with small
        # gradients: the bound fails on 5 of init seeds 0-29 (worst 1.6e-6).
        # At eps=1e-3 the worst of those seeds is 1.6e-8, while a gradient
        # that is off by a relative 1e-4 still reads 1e-4.
        result = grad_check(g, p, seed=1, eps=1e-3, layers=1)
        assert result.skipped == 0
        assert result.max_relative_error < 1e-6

    def test_fortran_ordered_array_checked_like_c_ordered(self):
        # grad_check must perturb the array itself: ravel() of a Fortran-ordered
        # array is a copy, and perturbing the copy reads a zero difference
        g = lowrank_graph(3, [(0, 1, 2)])
        p = init_layer_params(graph_slot_ids(g), d_h=3, rank=2, seed=0)
        named = named_arrays(p)
        named["mlp/w1"] = np.asfortranarray(named["mlp/w1"])
        p_f = replace_arrays(p, named)
        assert not p_f.arrays["mlp/w1"].flags.c_contiguous
        c_order, f_order = grad_check(g, p, seed=0, layers=1), grad_check(g, p_f, seed=0, layers=1)
        assert (f_order.checked, f_order.skipped) == (c_order.checked, c_order.skipped)
        # equal up to the matmul's rounding, which may depend on the memory order
        assert c_order.max_relative_error < 1e-6
        assert f_order.max_relative_error == pytest.approx(c_order.max_relative_error, abs=1e-8)

    @pytest.mark.parametrize("name, index, label", [
        ("slot/w_in", (1, 2, 0), "slot/w_in[p0/1][4]"),  # row 1 is slot p0/1; R = 2
        ("slot/w_out", (3, 0, 1), "slot/w_out[p1/0][1]"),
        ("mlp/w1", (1, 2), "mlp/w1[5]"),  # d_h = 3
    ])
    def test_worst_param_names_the_slot(self, monkeypatch, name, index, label):
        # a backward that is off in one coordinate: grad_check must name it
        g = lowrank_graph(4, [(0, 1, 2), (2, 3)])
        p = init_layer_params(graph_slot_ids(g), d_h=3, rank=2, seed=3)
        real = neural.lrbp_backward

        def off_by_one(tape, upstream, grads):
            grads[name][index] += 1.0
            return real(tape, upstream, grads)

        monkeypatch.setattr(neural, "lrbp_backward", off_by_one)
        result = grad_check(g, p, seed=0, layers=1)
        assert result.worst_param == label
        assert result.max_relative_error > 0.1

    def test_kink_coordinates_skipped(self):
        # b1[0] sits within eps of the ReLU kink; its own perturbation
        # flips the activation mask and must be excluded
        g = lowrank_graph(2, [(0, 1)], slot_lists=[("s", "s")])
        p = init_layer_params(["s"], d_h=2, rank=2, seed=2)
        named = named_arrays(p)
        named["slot/w_out"] = np.zeros_like(named["slot/w_out"])
        named["mlp/w1"] = np.zeros_like(named["mlp/w1"])
        named["mlp/b1"] = np.array([1e-7, 1.0, 1.0, 1.0])
        p = replace_arrays(p, named)
        result = grad_check(g, p, seed=2, eps=1e-5, layers=1)
        assert result.skipped >= 1
        assert result.max_relative_error < 1e-4


class TestInit:
    def test_named_arrays_is_a_new_table_over_the_same_arrays(self):
        p = init_layer_params(["a/w_in", "b"], d_h=3, rank=2, seed=1)
        assert p.slot_ids == ("a/w_in", "b")
        assert list(p.arrays) == ["slot/w_in", "slot/w_out", "mlp/w1", "mlp/b1", "mlp/w2",
                                  "mlp/b2", "readout/w", "readout/b"]
        assert p.arrays["slot/w_in"].shape == p.arrays["slot/w_out"].shape == (2, 3, 2)
        named = named_arrays(p)
        assert named is not p.arrays
        assert all(named[k] is a for k, a in p.arrays.items())
        w1 = named["mlp/w1"]
        named["mlp/w1"] = np.zeros_like(w1)
        del named["readout/b"]
        assert p.arrays["mlp/w1"] is w1 and "readout/b" in p.arrays

    def test_slot_rows_are_the_per_slot_draws(self):
        # slot k draws w_in, then w_out, from the slot stream: one stacked draw
        # gives the same values as a draw per slot matrix
        p = init_layer_params(["a", "b", "c"], d_h=3, rank=2, seed=5)
        rng = np.random.default_rng(np.random.SeedSequence(5).spawn(3)[0])
        s = 1.0 / np.sqrt(2)
        for k in range(3):
            for w in ("slot/w_in", "slot/w_out"):
                assert same_bits(p.arrays[w][k], rng.uniform(-s, s, size=(3, 2))), (k, w)
        assert init_layer_params(["a", "b", "a"], d_h=3, rank=2).slot_ids == ("a", "b")

    def test_mlp_and_readout_independent_of_slot_count(self):
        a = named_arrays(init_layer_params(["x"], d_h=3, rank=2, out_dim=2, seed=9))
        b = named_arrays(init_layer_params(["x1", "y1", "x2", "y2"], d_h=3, rank=2, out_dim=2, seed=9))
        for name in ("mlp/w1", "mlp/b1", "mlp/w2", "mlp/b2", "readout/w", "readout/b"):
            assert np.array_equal(a[name], b[name]), name


class TestReadout:
    def test_equal_states_collapse_to_affine(self):
        p = init_layer_params(["s"], d_h=3, rank=2, out_dim=2, seed=4)
        state = np.array([0.5, -1.0, 2.0])
        h = HiddenStates(np.tile(state, (5, 1)))
        np.testing.assert_allclose(readout(h, p), p.arrays["readout/w"] @ state + p.arrays["readout/b"],
                                   atol=1e-15)

    def test_permutation_invariant_bitwise(self):
        p = init_layer_params(["s"], d_h=3, rank=2, seed=5)
        vals = np.random.default_rng(6).standard_normal((6, 3))
        h = HiddenStates(vals)
        h_perm = HiddenStates(vals[::-1].copy())
        assert np.array_equal(readout(h, p), readout(h_perm, p))

    def test_empty_graph_rejected(self):
        p = init_layer_params(["s"], d_h=3, rank=2)
        with pytest.raises(ValueError, match="empty"):
            readout(HiddenStates(np.zeros((0, 3))), p)

    def test_disjoint_graphs_batched_equal_separate(self):
        rng = np.random.default_rng(7)
        g1 = lowrank_graph(3, [(0, 1), (1, 2)], slot_lists=[("a", "b"), ("c", "d")])
        g2 = lowrank_graph(2, [(0, 1)], slot_lists=[("e", "f")])
        batched = lowrank_graph(
            5, [(0, 1), (1, 2), (3, 4)], slot_lists=[("a", "b"), ("c", "d"), ("e", "f")]
        )
        sids = graph_slot_ids(batched)
        p = init_layer_params(sids, d_h=3, rank=2, seed=8)
        h1 = rng.standard_normal((3, 3))
        h2 = rng.standard_normal((2, 3))
        hb = np.vstack([h1, h2])
        out1, _ = forward_stack(HiddenStates(h1), g1, p, layers=2)
        out2, _ = forward_stack(HiddenStates(h2), g2, p, layers=2)
        outb, _ = forward_stack(HiddenStates(hb), batched, p, layers=2)
        assert np.array_equal(outb.values[:3], out1.values)
        assert np.array_equal(outb.values[3:], out2.values)
        assert np.array_equal(readout(HiddenStates(outb.values[:3]), p), readout(out1, p))


class TestTrainStep:
    def make_sample(self, seed=0):
        g = lowrank_graph(4, [(0, 1, 2), (2, 3)])
        p = init_layer_params(graph_slot_ids(g), d_h=4, rank=3, out_dim=1, seed=seed)
        h0 = HiddenStates(np.random.default_rng(seed + 1).standard_normal((4, 4)))
        return g, p, h0

    def test_lr_zero_leaves_params_unchanged(self):
        g, p, h0 = self.make_sample()
        new_p, _, loss = train_step([(g, h0, np.array([1.5]))], p, None, lr=0.0)
        assert np.isfinite(loss)
        for name, arr in named_arrays(p).items():
            assert np.array_equal(named_arrays(new_p)[name], arr)

    def test_loss_is_the_inference_readout_bitwise(self):
        # on this graph and init seed, a plain mean(axis=0) of the final
        # states differs from node_mean in the last bit
        rng = np.random.default_rng(0)
        scopes = [tuple(rng.choice(40, size=n, replace=False)) for n in rng.integers(2, 5, size=30)]
        g = lowrank_graph(40, scopes)
        h0 = HiddenStates(rng.standard_normal((40, 4)))
        target = np.array([0.3])
        p = init_layer_params(graph_slot_ids(g), d_h=4, rank=3, seed=0)
        _, _, loss = train_step([(g, h0, target)], p, None, lr=1e-3)
        h_t, _ = forward_stack(h0, g, p, layers=3)
        assert loss == float(np.mean(np.abs(readout(h_t, p) - target)))

    def adam_grads(self, monkeypatch, batch, p, layers=3):
        """The gradients train_step hands to adam_step, and its loss."""
        seen = {}
        real = neural.adam_step

        def spy(named, grads, state, lr):
            seen.update({k: v.copy() for k, v in grads.items()})
            return real(named, grads, state, lr)

        monkeypatch.setattr(neural, "adam_step", spy)
        new_p, _, loss = train_step(batch, p, None, lr=1e-3, layers=layers)
        assert list(seen) == list(named_arrays(p))
        return seen, new_p, loss

    def test_train_grads_match_fd(self, monkeypatch):
        g, p, h0 = self.make_sample(seed=2)
        target = np.array([0.7])
        grads, _, _ = self.adam_grads(monkeypatch, [(g, h0, target)], p)

        def loss():
            h_t, _ = forward_stack(h0, g, p, layers=3)
            return float(np.mean(np.abs(readout(h_t, p) - target)))

        fd = fd_loss_grads(loss, p)
        for name, ana in grads.items():
            rel = np.abs(fd[name] - ana) / np.maximum.reduce(
                [np.abs(fd[name]), np.abs(ana), np.full_like(ana, 1e-3)]
            )
            assert rel.max() < 1e-4, name

    def test_zero_layers_fits_only_the_readout(self, monkeypatch):
        # no layer runs: the readout is fitted on the mean input state
        g = lowrank_graph(3, [(0, 1, 2)])
        p = init_layer_params(graph_slot_ids(g), d_h=3, rank=2, seed=6)
        h0 = HiddenStates(np.random.default_rng(7).standard_normal((3, 3)))
        target = np.array([0.4])
        grads, new_p, loss = self.adam_grads(monkeypatch, [(g, h0, target)], p, layers=0)
        assert np.isfinite(loss)
        assert loss == float(np.mean(np.abs(readout(h0, p) - target)))
        before, after = named_arrays(p), named_arrays(new_p)
        for name, arr in before.items():
            if name.startswith("readout/"):
                assert not np.array_equal(after[name], arr), name
            else:
                assert np.all(grads[name] == 0), name
                assert same_bits(after[name], arr), name

    def test_overfit_single_sample(self):
        g, p, h0 = self.make_sample(seed=3)
        target = np.array([2.0])
        opt = None
        losses = []
        for _ in range(500):
            p, opt, loss = train_step([(g, h0, target)], p, opt, lr=1e-3)
            losses.append(loss)
        assert losses[-1] < 0.1 * losses[0]
        # trailing-window means keep shrinking
        assert np.mean(losses[-50:]) <= np.mean(losses[:50])

    def test_non_finite_loss_aborts(self):
        g, p, h0 = self.make_sample(seed=4)
        bad = HiddenStates(np.full((4, 4), 1e200))
        before = {k: v.copy() for k, v in named_arrays(p).items()}
        new_p, _, loss = train_step([(g, bad, np.array([0.0]))], p, None, lr=1e-3)
        assert not np.isfinite(loss)
        for name, arr in named_arrays(new_p).items():
            assert np.array_equal(arr, before[name])

    @pytest.mark.parametrize("w_out", [1e-100, 1.0])
    def test_finite_loss_with_overflowing_gradient_aborts(self, w_out):
        # the forward and the loss are finite. With w_out = 1e-100 the gradients
        # are too, but w_out's (about 1e199) squares past the float64 range in
        # Adam's second moment; with w_out = 1 the gradient of slot a's w_in
        # overflows in the backward itself. Either way the step returns what
        # it was given, with loss NaN and no numpy warning.
        g = lowrank_graph(4, [(0, 1, 2, 3)], slot_lists=[("a", "b", "c", "d")])
        p = init_layer_params(["a", "b", "c", "d"], d_h=1, rank=1, seed=0)
        named = named_arrays(p)
        named["slot/w_in"] = np.ones_like(named["slot/w_in"])
        named["slot/w_out"] = np.full_like(named["slot/w_out"], w_out)
        p = replace_arrays(p, named)
        h0 = HiddenStates(np.array([[1e-200], [1e200], [1e200], [1e-200]]))
        target = np.array([0.0])
        h_t, _ = forward_stack(h0, g, p, layers=1)
        assert np.isfinite(readout(h_t, p)).all()
        opt = adam_init(named)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            new_p, new_opt, loss = train_step([(g, h0, target)], p, opt, layers=1)
        assert np.isnan(loss)
        assert new_p is p and new_opt is opt and opt.step == 0
        assert all(np.all(a == 0) for a in opt.m.values())

    def test_empty_batch_rejected(self):
        _, p, _ = self.make_sample()
        with pytest.raises(ValueError, match="non-empty batch"):
            train_step([], p, None)

    def test_empty_graph_rejected_before_any_forward_pass(self, monkeypatch):
        g, p, h0 = self.make_sample()
        empty = (build_graph(0, 2, []), HiddenStates(np.zeros((0, 4))), np.array([1.0]))

        def no_forward(*args, **kwargs):
            raise AssertionError("forward pass ran")

        monkeypatch.setattr(neural, "forward_stack", no_forward)
        with pytest.raises(ValueError, match="non-empty graphs"):
            train_step([(g, h0, np.array([1.0])), empty], p, None)

    def test_overflow_in_later_graph_aborts_whole_batch(self):
        # grads from the finite first graph are already accumulated when the
        # second graph's forward overflows; none of them may be applied
        g, p, h0 = self.make_sample(seed=5)
        p, opt, _ = train_step([(g, h0, np.array([0.5]))], p, None, lr=1e-3)
        before = {k: v.copy() for k, v in named_arrays(p).items()}
        opt_before = {k: (opt.m[k].copy(), opt.v[k].copy()) for k in opt.m}
        bad = HiddenStates(np.full((4, 4), 1e200))
        batch = [(g, h0, np.array([0.5])), (g, bad, np.array([0.0]))]
        new_p, new_opt, loss = train_step(batch, p, opt, lr=1e-3)
        assert not np.isfinite(loss)
        for name, arr in named_arrays(new_p).items():
            assert np.array_equal(arr, before[name])
        assert new_opt is opt and opt.step == 1
        for k, (m, v) in opt_before.items():
            assert np.array_equal(opt.m[k], m) and np.array_equal(opt.v[k], v)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestCheckpoint:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), steps=st.integers(0, 2))
    def test_round_trip_exact(self, tmp_path_factory, seed, steps):
        # steps == 0 saves no optimizer state; otherwise Adam runs `steps`
        # steps on gradients whose exponents span most of the float64 range
        rng = np.random.default_rng(seed)
        slot_ids = [f"s{k}/{k % 2}" for k in range(int(rng.integers(0, 4)))]
        d_h, rank = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        p = init_layer_params(slot_ids, d_h, rank, out_dim=int(rng.integers(1, 3)),
                              d_mlp=int(rng.integers(1, 6)), seed=seed)
        opt = None
        for _ in range(steps):
            named = named_arrays(p)
            grads = {k: rng.standard_normal(a.shape) * 10.0 ** rng.integers(-150, 150, size=a.shape)
                     for k, a in named.items()}
            new, opt = adam_step(named, grads, opt or adam_init(named), lr=1e-3)
            p = replace_arrays(p, new)
        path = tmp_path_factory.mktemp("ckpt") / "ckpt.json"
        save_checkpoint(p, path, opt)
        doc = json.loads(path.read_text())
        assert doc["slots"] == list(p.slot_ids)
        assert list(doc["arrays"]) == list(named_arrays(p))
        if opt is not None:
            moments = doc["optimizer"]
            assert list(moments["m"]) == list(moments["v"]) == list(named_arrays(p))
        q, opt2 = load_checkpoint(path)
        assert (q.d_h, q.rank, q.slot_ids) == (p.d_h, p.rank, p.slot_ids)
        assert list(named_arrays(q)) == list(named_arrays(p))
        assert all(same_bits(named_arrays(q)[k], a) for k, a in named_arrays(p).items())
        assert (opt2 is None) == (opt is None)
        if opt is not None:
            assert opt2.step == opt.step == steps
            for k in opt.m:
                assert same_bits(opt.m[k], opt2.m[k]) and same_bits(opt.v[k], opt2.v[k])

    # `name` is a top-level field, an array's named_arrays name (looked up in
    # "arrays"), a moment as optimizer/<m|v>/<name> or optimizer/step
    @pytest.mark.parametrize("name, value, match", [
        ("mlp/w1", None, "missing mlp/w1"),
        ("slot/w_in", None, "missing slot/w_in"),
        ("d_h", None, "missing d_h"),
        ("optimizer/m/readout/b", None, "missing optimizer/m/readout/b"),
        ("slot/w_in", [[1.0]], r"array slot/w_in has shape \(1, 1\), expected \(2, 3, 2\)"),
        ("slot/w_out", [[[1.0, 2.0]] * 3], r"array slot/w_out has shape \(1, 3, 2\), expected \(2, 3, 2\)"),
        ("mlp/w1", [[1.0] * 3] * 5, r"mlp/w1 has shape \(5, 3\), expected \(4, 3\)"),
        ("mlp/w2", [[1.0] * 4] * 2, r"mlp/w2 has shape \(2, 4\), expected \(3, 4\)"),
        ("mlp/b2", [1.0], r"mlp/b2 has shape \(1,\), expected \(3,\)"),
        ("readout/w", [[1.0] * 2], r"readout/w has shape \(1, 2\), expected \(1, 3\)"),
        ("optimizer/v/mlp/b1", [0.0], r"v of mlp/b1 has shape \(1,\), expected \(4,\)"),
        ("rank", "two", "field rank"),
        ("mlp/b1", [[1.0, "x"]], "field mlp/b1"),
        ("slots", 5, "field slots"),
        ("slots", "ab", "field slots"),
        ("slots", ["a", "a"], "field slots: repeated slot id 'a'"),
        # integer fields are not truncated from floats or bools
        ("d_h", 4.9, "field d_h: value must be an integer, got 4.9"),
        ("rank", 2.5, "field rank: value must be an integer, got 2.5"),
        ("rank", True, "field rank: value must be an integer, got True"),
        ("optimizer/step", 2.7, "field optimizer/step: value must be an integer, got 2.7"),
        ("optimizer/step", True, "field optimizer/step: value must be an integer, got True"),
    ])
    def test_malformed_checkpoint_reported(self, tmp_path, name, value, match):
        p = init_layer_params(["a", "b"], d_h=3, rank=2, d_mlp=4, seed=0)
        file = tmp_path / "ckpt.json"
        save_checkpoint(p, file, adam_init(named_arrays(p)))
        doc = json.loads(file.read_text())
        if name in doc:
            parent, key = doc, name
        elif name.startswith("optimizer/"):
            *moment, key = name.split("/", 2)[1:]
            parent = doc["optimizer"]
            for k in moment:
                parent = parent[k]
        else:
            parent, key = doc["arrays"], name
        if value is None:
            del parent[key]
        else:
            parent[key] = value
        file.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=match):
            load_checkpoint(file)

    def test_per_slot_layout_rejected(self, tmp_path):
        # the layout with one array per slot (slot/<id>/w_in) is never loaded
        p = init_layer_params(["a", "b"], d_h=3, rank=2, d_mlp=4, seed=0)
        per_slot = {f"slot/{sid}/{w}": slot_matrix(p, sid, w).tolist()
                    for sid in p.slot_ids for w in ("w_in", "w_out")}
        rest = {name: a.tolist() for name, a in p.arrays.items() if not name.startswith("slot/")}
        doc = {"d_h": 3, "rank": 2, "slots": ["a", "b"], "arrays": {**per_slot, **rest}, "optimizer": None}
        file = tmp_path / "ckpt.json"
        file.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="checkpoint is missing slot/w_in"):
            load_checkpoint(file)

    def test_nested_layout_rejected(self, tmp_path):
        # the layout that read each field by a nested path is never loaded
        p = init_layer_params(["a", "b"], d_h=3, rank=2, d_mlp=4, seed=0)
        doc = {
            "d_h": 3,
            "rank": 2,
            "slots": {sid: {w: slot_matrix(p, sid, w).tolist() for w in ("w_in", "w_out")}
                      for sid in p.slot_ids},
            "mlp": {w: p.arrays[f"mlp/{w}"].tolist() for w in ("w1", "b1", "w2", "b2")},
            "readout": {w: p.arrays[f"readout/{w}"].tolist() for w in ("w", "b")},
            "optimizer": None,
        }
        file = tmp_path / "ckpt.json"
        file.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="field slots: expected a list of slot id strings"):
            load_checkpoint(file)


class TestSlotTables:
    """A table with one slot per edge, and a table with no slots."""

    def unshared(self):
        # every factor has its own param_id, so the derived slots are one per edge
        g = lowrank_graph(5, [(0, 1, 2), (2, 3), (1, 3, 4, 0)])
        assert len(g.slots.groups) == 1 and g.slots.groups[0][1].shape == (9, 1)
        return g

    def empty(self):
        return build_graph(3, 2, [])

    @pytest.mark.parametrize("which", ["unshared", "empty"])
    def test_forward_and_gradients(self, which):
        g = getattr(self, which)()
        p = init_layer_params(graph_slot_ids(g), d_h=3, rank=2, seed=1)
        assert p.arrays["slot/w_in"].shape == (len(g.slots.ids), 3, 2)
        h = HiddenStates(np.random.default_rng(2).standard_normal((g.num_vars, 3)))
        out, tape = lrbp_forward(h, g, p)
        assert np.max(np.abs(tape.agg - reference_agg(g, p, h.values))) <= 1e-12
        grads, _ = layer_grads(tape, 2.0 * out.values)

        def loss():
            cur, _ = lrbp_forward(h, g, p)
            return float(np.sum(cur.values**2))

        fd = fd_loss_grads(loss, p)
        for name, ana in grads.items():
            rel = np.abs(fd[name] - ana) / np.maximum.reduce(
                [np.abs(fd[name]), np.abs(ana), np.full_like(ana, 1e-3)]
            )
            assert rel.max(initial=0.0) < 1e-4, name

    @pytest.mark.parametrize("which", ["unshared", "empty"])
    def test_train_step_and_checkpoint(self, tmp_path, which):
        g = getattr(self, which)()
        p = init_layer_params(graph_slot_ids(g), d_h=3, rank=2, seed=3)
        h0 = HiddenStates(np.random.default_rng(4).standard_normal((g.num_vars, 3)))
        new_p, opt, loss = train_step([(g, h0, np.array([0.5]))], p, None, lr=1e-2)
        assert np.isfinite(loss) and opt.step == 1
        assert not np.array_equal(new_p.arrays["mlp/w2"], p.arrays["mlp/w2"])
        path = tmp_path / "ckpt.json"
        save_checkpoint(new_p, path, opt)
        q, opt2 = load_checkpoint(path)
        assert q.slot_ids == new_p.slot_ids and opt2.step == 1
        for name, a in new_p.arrays.items():
            assert same_bits(q.arrays[name], a), name
            assert same_bits(opt2.m[name], opt.m[name]) and same_bits(opt2.v[name], opt.v[name]), name
