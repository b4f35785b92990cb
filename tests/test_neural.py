import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrbp.graph import FactorBinding, LowRankPayload, build_graph
from lrbp.neural import (
    GradientBundle,
    HiddenStates,
    LayerParams,
    SlotPair,
    adam_init,
    backward_stack,
    factor_slots,
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


def zero_mlp_output(p):
    named = dict(named_arrays(p))
    named["mlp/w2"] = np.zeros_like(p.w2)
    named["mlp/b2"] = np.zeros_like(p.b2)
    return replace_arrays(p, named)


def identity_mlp(p):
    """MLP(x) = relu(x) - relu(-x) = x, requires d_mlp = 2 * d_h."""
    d_h = p.d_h
    named = dict(named_arrays(p))
    named["mlp/w1"] = np.vstack([np.eye(d_h), -np.eye(d_h)])
    named["mlp/b1"] = np.zeros(2 * d_h)
    named["mlp/w2"] = np.hstack([np.eye(d_h), -np.eye(d_h)])
    named["mlp/b2"] = np.zeros(d_h)
    return replace_arrays(p, named)


class TestForward:
    def test_residual_identity_with_zero_output_layer(self):
        g = lowrank_graph(3, [(0, 1), (1, 2)])
        p = zero_mlp_output(init_layer_params(graph_slot_ids(g), d_h=4, rank=2, seed=1))
        h = HiddenStates(np.random.default_rng(2).standard_normal((3, 4)))
        out, _ = lrbp_forward(h, g, p)
        assert np.array_equal(out.values, h.values)
        assert out.t == h.t + 1

    def test_two_node_hand_expansion(self):
        # single rank-1 factor, both slot matrices the first basis column:
        # the pre-MLP message into node 0 is h_1[0] * e_1, and with an
        # identity MLP the update is exactly h + that message
        g = lowrank_graph(2, [(0, 1)], slot_lists=[("s0", "s1")])
        d_h = 3
        e1 = np.zeros((d_h, 1))
        e1[0, 0] = 1.0
        p = init_layer_params(["s0", "s1"], d_h=d_h, rank=1, seed=0)
        named = dict(named_arrays(p))
        for sid in ("s0", "s1"):
            named[f"slot/{sid}/w_in"] = e1.copy()
            named[f"slot/{sid}/w_out"] = e1.copy()
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

    def test_non_finite_input_rejected(self):
        g = lowrank_graph(2, [(0, 1)])
        p = init_layer_params(graph_slot_ids(g), d_h=2, rank=2)
        with pytest.raises(FloatingPointError):
            lrbp_forward(HiddenStates(np.array([[np.nan, 0.0], [0.0, 0.0]])), g, p)

    def test_overflow_raises_only_floating_point_error(self):
        g = lowrank_graph(4, [(0, 1, 2), (2, 3)])
        p = init_layer_params(graph_slot_ids(g), d_h=4, rank=3, seed=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(FloatingPointError, match="non-finite message from factor 0"):
                lrbp_forward(HiddenStates(np.full((4, 4), 1e200)), g, p)

    def test_arity_one_factor_contributes_ones_product(self):
        # empty Hadamard set: message = w_out @ ones(R)
        g = lowrank_graph(1, [(0,)], slot_lists=[("s",)])
        p = zero_mlp_output(init_layer_params(["s"], d_h=3, rank=4, seed=3))
        h = HiddenStates(np.zeros((1, 3)))
        _, tape = lrbp_forward(h, g, p)
        np.testing.assert_allclose(tape.agg[0], p.slots["s"].w_out @ np.ones(4), atol=1e-15)

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

        expected = np.zeros_like(h)
        for a, binding in enumerate(g.factors):
            slots = factor_slots(g, a)
            us = [p.slots[sid].w_in.T @ h[j] for sid, j in zip(slots, binding.scope)]
            for k, (sid, j) in enumerate(zip(slots, binding.scope)):
                others = np.array([us[m] for m in range(len(us)) if m != k]).reshape(-1, rank)
                expected[j] += p.slots[sid].w_out @ np.prod(others, axis=0)
        out, tape = lrbp_forward(HiddenStates(h), g, p)
        assert np.max(np.abs(tape.agg - expected), initial=0.0) <= 1e-12

        perm = rng.permutation(len(scopes))
        g_p = lowrank_graph(6 + isolated, [scopes[a] for a in perm],
                            slot_lists=[slot_lists[a] for a in perm])
        out_p, _ = lrbp_forward(HiddenStates(h), g_p, p)
        assert np.max(np.abs(out_p.values - out.values)) <= 1e-12


def fd_loss_grads(loss_fn, p, eps=1e-6):
    """Central finite differences of loss_fn() w.r.t. every parameter entry."""
    out = {}
    for name, arr in named_arrays(p).items():
        flat = arr.ravel()
        grad = np.zeros(flat.size)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            lp = loss_fn()
            flat[idx] = orig - eps
            lm = loss_fn()
            flat[idx] = orig
            grad[idx] = (lp - lm) / (2 * eps)
        out[name] = grad.reshape(arr.shape)
    return out


class TestBackward:
    def make_case(self, seed=0):
        g = lowrank_graph(4, [(0, 1, 2), (2, 3), (1, 3)])
        p = init_layer_params(graph_slot_ids(g), d_h=4, rank=3, seed=seed)
        h = HiddenStates(np.random.default_rng(seed + 1).standard_normal((4, 4)))
        return g, p, h

    def test_zero_upstream_gives_zero_grads(self):
        g, p, h = self.make_case()
        _, tape = lrbp_forward(h, g, p)
        bundle = lrbp_backward(tape, np.zeros_like(h.values))
        assert all(np.all(v == 0) for v in bundle.by_name.values())
        assert np.all(bundle.input_states == 0)

    def test_first_layer_bias_zero_when_output_layer_zeroed(self):
        g, p, h = self.make_case()
        p = zero_mlp_output(p)
        _, tape = lrbp_forward(h, g, p)
        bundle = lrbp_backward(tape, np.ones_like(h.values))
        assert np.all(bundle.by_name["mlp/b1"] == 0)

    def test_first_layer_bias_closed_form_and_fd(self):
        # loss = sum of output entries; dL/db1 = sum_i relu'(z_i) * (w2^T 1)
        g, p, h = self.make_case(seed=3)
        _, tape = lrbp_forward(h, g, p)
        bundle = lrbp_backward(tape, np.ones_like(h.values))
        closed = ((tape.z > 0) * (p.w2.T @ np.ones(p.d_h))).sum(axis=0)
        np.testing.assert_allclose(bundle.by_name["mlp/b1"], closed, atol=1e-12)

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
        bundle = lrbp_backward(tape, 2.0 * out.values)

        def loss():
            cur, _ = lrbp_forward(h, g, p)
            return float(np.sum(cur.values**2))

        fd = fd_loss_grads(loss, p)
        for name, ana in bundle.by_name.items():
            rel = np.abs(fd[name] - ana) / np.maximum.reduce(
                [np.abs(fd[name]), np.abs(ana), np.full_like(ana, 1e-3)]
            )
            assert rel.max() < 1e-4, name

    def test_input_state_grads_match_fd(self):
        g, p, h = self.make_case(seed=6)
        _, tape = lrbp_forward(h, g, p)
        out, _ = lrbp_forward(h, g, p)
        bundle = lrbp_backward(tape, 2.0 * out.values)
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
        rel = np.abs(fd - bundle.input_states) / np.maximum(np.abs(fd), 1e-3)
        assert rel.max() < 1e-4

    def test_shared_slots_accumulate(self):
        # two factors sharing slots == duplicated slots with grads added
        scopes = [(0, 1), (2, 3)]
        g_shared = lowrank_graph(4, scopes, slot_lists=[("x", "y"), ("x", "y")])
        g_split = lowrank_graph(4, scopes, slot_lists=[("x1", "y1"), ("x2", "y2")])
        base = init_layer_params(["x", "y"], d_h=3, rank=2, seed=9)
        split_named = dict(named_arrays(init_layer_params(["x1", "y1", "x2", "y2"], d_h=3, rank=2, seed=9)))
        for src, dsts in (("x", ("x1", "x2")), ("y", ("y1", "y2"))):
            for dst in dsts:
                split_named[f"slot/{dst}/w_in"] = base.slots[src].w_in.copy()
                split_named[f"slot/{dst}/w_out"] = base.slots[src].w_out.copy()
        p_split = replace_arrays(
            init_layer_params(["x1", "y1", "x2", "y2"], d_h=3, rank=2, seed=9), split_named
        )
        h = HiddenStates(np.random.default_rng(10).standard_normal((4, 3)))
        up = np.random.default_rng(11).standard_normal((4, 3))
        _, tape_a = lrbp_forward(h, g_shared, base)
        _, tape_b = lrbp_forward(h, g_split, p_split)
        ga = lrbp_backward(tape_a, up).by_name
        gb = lrbp_backward(tape_b, up).by_name
        for src, dsts in (("x", ("x1", "x2")), ("y", ("y1", "y2"))):
            for mat in ("w_in", "w_out"):
                summed = gb[f"slot/{dsts[0]}/{mat}"] + gb[f"slot/{dsts[1]}/{mat}"]
                np.testing.assert_allclose(ga[f"slot/{src}/{mat}"], summed, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        g, p, h = self.make_case()
        _, tape = lrbp_forward(h, g, p)
        with pytest.raises(ValueError, match="upstream"):
            lrbp_backward(tape, np.zeros((2, 2)))


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
        named = dict(named_arrays(p))
        named["mlp/b1"] = np.full_like(p.b1, 5.0)
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

    def test_kink_coordinates_skipped(self):
        # b1[0] sits within eps of the ReLU kink; its own perturbation
        # flips the activation mask and must be excluded
        g = lowrank_graph(2, [(0, 1)], slot_lists=[("s", "s")])
        p = init_layer_params(["s"], d_h=2, rank=2, seed=2)
        named = dict(named_arrays(p))
        named["slot/s/w_out"] = np.zeros_like(p.slots["s"].w_out)
        named["mlp/w1"] = np.zeros_like(p.w1)
        named["mlp/b1"] = np.array([1e-7, 1.0, 1.0, 1.0])
        p = replace_arrays(p, named)
        result = grad_check(g, p, seed=2, eps=1e-5, layers=1)
        assert result.skipped >= 1
        assert result.max_relative_error < 1e-4


class TestInit:
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
        np.testing.assert_allclose(readout(h, p), p.w_ro @ state + p.b_ro, atol=1e-15)

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

    def test_train_grads_match_fd(self):
        g, p, h0 = self.make_sample(seed=2)
        target = np.array([0.7])

        def loss():
            h_t, _ = forward_stack(h0, g, p, layers=3)
            pred = p.w_ro @ h_t.values.mean(axis=0) + p.b_ro
            return float(np.mean(np.abs(pred - target)))

        # replicate the train_step gradient assembly
        h_t, tapes = forward_stack(h0, g, p, layers=3)
        mean = h_t.values.mean(axis=0)
        pred = p.w_ro @ mean + p.b_ro
        resid = pred - target
        dpred = np.sign(resid) / resid.size
        upstream = np.tile((p.w_ro.T @ dpred) / 4, (4, 1))
        bundle = backward_stack(tapes, upstream)
        grads = dict(bundle.by_name)
        grads["readout/w"] = grads["readout/w"] + np.outer(dpred, mean)
        grads["readout/b"] = grads["readout/b"] + dpred

        fd = fd_loss_grads(loss, p)
        for name, ana in grads.items():
            rel = np.abs(fd[name] - ana) / np.maximum.reduce(
                [np.abs(fd[name]), np.abs(ana), np.full_like(ana, 1e-3)]
            )
            assert rel.max() < 1e-4, name

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


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        g = lowrank_graph(3, [(0, 1), (1, 2)])
        p = init_layer_params(graph_slot_ids(g), d_h=4, rank=3, seed=13)
        h0 = HiddenStates(np.random.default_rng(14).standard_normal((3, 4)))
        p, opt, _ = train_step([(g, h0, np.array([1.0]))], p, None, lr=1e-3)
        path = tmp_path / "ckpt.json"
        save_checkpoint(p, path, opt)
        q, opt2 = load_checkpoint(path)
        for name, arr in named_arrays(p).items():
            assert np.array_equal(named_arrays(q)[name], arr)
        assert opt2.step == opt.step
        for k in opt.m:
            assert np.array_equal(opt.m[k], opt2.m[k])
            assert np.array_equal(opt.v[k], opt2.v[k])
