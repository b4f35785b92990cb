import itertools
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrbp.engine import exact_marginals, run_lbp
from lrbp.graph import (
    DensePayload,
    FactorBinding,
    GraphError,
    LowRankPayload,
    build_graph,
    factor_cp,
    factor_slots,
    joint_table,
    load_graph,
    save_graph,
)
from lrbp.tensors import CAPACITY, CapacityError, CPFactor, cp_expand, cp_random


def enumerate_z(g):
    """Partition function by explicit state enumeration, independent of joint_table."""
    z = 0.0
    for state in itertools.product(range(g.cardinality), repeat=g.num_vars):
        term = 1.0
        for i, x in enumerate(state):
            term *= g.unary[i][x]
        for a, binding in enumerate(g.factors):
            payload = binding.payload
            if isinstance(payload, DensePayload):
                table = payload.table
            else:
                table = cp_expand(g.params[payload.param_id])
            term *= table[tuple(state[v] for v in binding.scope)]
        z += term
    return z


def bucket_factors(g):
    """Each variable's factors as the layout's degree buckets list them."""
    out = {}
    for vs, edges in g.layout.buckets:
        for v, row in zip(vs.tolist(), edges.T):
            out[v] = tuple(g.layout.fac[row].tolist())
    return [out[v] for v in range(g.num_vars)]


def scope_factors(g):
    """Each variable's factors in factor order, from the scopes alone."""
    return [tuple(a for a, b in enumerate(g.factors) if v in b.scope) for v in range(g.num_vars)]


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def wide_values(rng, shape):
    """Signed values whose exponents span most of the float64 range."""
    return rng.uniform(-1.0, 1.0, size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)


def mixed_graph(seed, with_unary, with_slots):
    """Up to 6 factors of arity 1-3, each dense or low-rank; low-rank factors
    of one arity may share a parameter set. With `with_slots`, some factors
    carry slot ids."""
    rng = np.random.default_rng(seed)
    num_vars, d = int(rng.integers(1, 6)), int(rng.integers(2, 4))
    bindings, params = [], {}
    for _ in range(int(rng.integers(0, 7))):
        n = int(rng.integers(1, min(3, num_vars) + 1))
        scope = tuple(rng.choice(num_vars, size=n, replace=False).tolist())
        if rng.uniform() < 0.5:
            payload = DensePayload(wide_values(rng, (d,) * n))
        else:
            shared = [pid for pid, cp in params.items() if cp.arity == n]
            if shared and rng.uniform() < 0.5:
                pid = str(rng.choice(shared))
            else:
                pid = f"p{len(params)}"
                rank = int(rng.integers(1, 4))
                params[pid] = CPFactor(n, d, rank, tuple(wide_values(rng, (d, rank)) for _ in scope))
            payload = LowRankPayload(pid)
        slots = None
        if with_slots and rng.uniform() < 0.7:
            slots = tuple(f"s{k}" for k in rng.integers(0, 3, size=n))
        bindings.append(FactorBinding(scope, payload, slots))
    unary = wide_values(rng, (num_vars, d)) if with_unary else None
    return build_graph(num_vars, d, bindings, unary=unary, params=params)


class TestBuildGraph:
    def test_degenerate_unary_only(self):
        g = build_graph(1, 2, [], unary=[[2.0, 6.0]])
        assert bucket_factors(g) == [()]

    def test_chain_adjacency(self):
        coupling = DensePayload(np.ones((2, 2)))
        g = build_graph(3, 2, [FactorBinding((0, 1), coupling), FactorBinding((1, 2), coupling)])
        assert bucket_factors(g) == [(0,), (0, 1), (1,)]
        assert [vs.tolist() for vs, _ in g.layout.buckets] == [[0, 2], [1]]

    def test_duplicate_variable_rejected(self):
        with pytest.raises(GraphError, match="factor 0.*duplicate"):
            build_graph(2, 2, [FactorBinding((0, 0), DensePayload(np.ones((2, 2))))])

    def test_out_of_range_variable_rejected(self):
        with pytest.raises(GraphError, match="factor 0.*out of range"):
            build_graph(2, 2, [FactorBinding((0, 5), DensePayload(np.ones((2, 2))))])

    def test_slot_ids_string_rejected(self):
        # a str would otherwise bind one slot per character
        with pytest.raises(GraphError, match="slot ids must be a sequence of strings"):
            FactorBinding((0, 1), LowRankPayload("p"), "ab")

    def test_payload_shape_mismatch_rejected(self):
        for table in (np.ones((2, 3)), np.ones(()), np.ones((2, 0))):
            with pytest.raises(GraphError, match="factor 1"):
                build_graph(
                    3,
                    2,
                    [
                        FactorBinding((0, 1), DensePayload(np.ones((2, 2)))),
                        FactorBinding((1, 2), DensePayload(table)),
                    ],
                )

    @pytest.mark.parametrize("num_vars, cardinality, match", [
        (2.5, 2, "num_vars must be an integer, got 2.5"),
        (2, 2.0, "cardinality must be an integer, got 2.0"),
        (True, 2, "num_vars must be an integer, got True"),
        (-1, 2, "num_vars must be >= 0, got -1"),
        (2, 1, "cardinality must be >= 2, got 1"),
        ("2", 2, "num_vars must be an integer, got '2'"),
        (2, None, "cardinality must be an integer, got None"),
    ])
    def test_sizes_rejected(self, num_vars, cardinality, match):
        with pytest.raises(GraphError, match=match):
            build_graph(num_vars, cardinality, [FactorBinding((0, 1), DensePayload(np.ones((2, 2))))])

    def test_sizes_stored_as_python_ints(self):
        g = build_graph(np.int64(2), np.int32(2), [FactorBinding((0, 1), DensePayload(np.ones((2, 2))))])
        assert type(g.num_vars) is int and type(g.cardinality) is int
        assert (g.num_vars, g.cardinality) == (2, 2)

    def test_non_numeric_arrays_rejected(self):
        # strings, bools, None and complex values are refused, not converted
        for bad in (["0.5", "1e3"], [True, True], [None, 1.0], [1j, 1.0]):
            with pytest.raises(ValueError, match="table must be real numbers"):
                DensePayload(bad)
            with pytest.raises(ValueError, match="weights must be real numbers"):
                CPFactor(1, 2, 1, [[[x] for x in bad]])
            with pytest.raises(GraphError, match="unary must be real numbers"):
                build_graph(1, 2, [], unary=[bad])

    def test_dense_payload_owns_its_table(self):
        # every input is copied, a C-contiguous float64 one too, and the
        # caller's array stays writable
        for table in (np.ones((2, 2)), np.ones((2, 2), dtype=np.int64),
                      np.ones((2, 2), order="F")[:, ::-1], np.ones((2, 2), dtype=np.float32)):
            got = DensePayload(table).table
            assert not np.shares_memory(got, table) and table.flags.writeable
            assert not got.flags.writeable
            assert got.dtype == np.float64 and got.flags.c_contiguous
        assert DensePayload([[1, 2], [3, 4]]).table.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_dense_payload_copies_once(self):
        # an array table is copied, or converted to float64, in one step
        for table in (np.ones((4,) * 8), np.ones((4,) * 8, dtype=np.int64)):
            tracemalloc.start()
            try:
                DensePayload(table)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1.5 * table.nbytes

    def test_missing_unary_is_ones(self, tmp_path):
        # a graph built without a unary holds a read-only all-ones one, and
        # solves, enumerates and saves exactly as with an explicit np.ones
        rng = np.random.default_rng(9)
        bindings = [FactorBinding((0, 1, 2), LowRankPayload("p")),
                    FactorBinding((2, 3), DensePayload(rng.uniform(-1.0, 1.0, size=(3, 3))))]
        params = {"p": cp_random(3, 3, 2, seed=9)}
        g = build_graph(4, 3, bindings, params=params)
        ones = build_graph(4, 3, bindings, unary=np.ones((4, 3)), params=params)
        assert same_bits(g.unary, np.ones((4, 3))) and not g.unary.flags.writeable
        assert run_lbp(g).beliefs.tobytes() == run_lbp(ones).beliefs.tobytes()
        assert same_bits(joint_table(g)[0], joint_table(ones)[0])
        assert joint_table(g)[1] == joint_table(ones)[1]
        assert exact_marginals(g).beliefs.tobytes() == exact_marginals(ones).beliefs.tobytes()
        path = tmp_path / "graph.json"
        save_graph(g, path)
        assert json.loads(path.read_text())["unary"] == np.ones((4, 3)).tolist()
        assert same_bits(load_graph(path).unary, g.unary)

    @pytest.mark.parametrize("value, referenced", [
        ("p", True), (np.ones((2, 2, 1)), False), (None, False),
    ])
    def test_params_value_not_a_cp_factor_rejected(self, value, referenced):
        bindings = [FactorBinding((0, 1), LowRankPayload("ok"))]
        if referenced:
            bindings.append(FactorBinding((0, 1), LowRankPayload("bad")))
        match = f"param 'bad': expected a CPFactor, got {type(value).__name__}"
        with pytest.raises(GraphError, match=match):
            build_graph(2, 2, bindings, params={"ok": cp_random(2, 2, 1, seed=0), "bad": value})

    def test_dense_factor_has_no_cp_factor_or_derived_slots(self):
        g = build_graph(2, 2, [FactorBinding((0, 1), DensePayload(np.ones((2, 2))))])
        with pytest.raises(GraphError, match="^factor 0 has no low-rank payload$"):
            factor_cp(g, 0)
        with pytest.raises(ValueError, match="^factor 0 has no low-rank payload; cannot derive slots$"):
            factor_slots(g, 0)

    def test_lowrank_requires_known_param(self):
        with pytest.raises(GraphError, match="param_id"):
            build_graph(2, 2, [FactorBinding((0, 1), LowRankPayload("missing"))])

    def test_lowrank_arity_checked(self):
        cp = cp_random(3, 2, 2, seed=0)
        with pytest.raises(GraphError, match="arity"):
            build_graph(
                2, 2, [FactorBinding((0, 1), LowRankPayload("p"))], params={"p": cp}
            )

    def test_adjacency_is_scope_transpose(self):
        rng = np.random.default_rng(4)
        bindings = []
        for _ in range(6):
            scope = tuple(rng.choice(5, size=rng.integers(1, 4), replace=False))
            bindings.append(FactorBinding(scope, DensePayload(rng.uniform(size=(3,) * len(scope)))))
        g = build_graph(5, 3, bindings)
        assert bucket_factors(g) == scope_factors(g)

    @given(seed=st.integers(0, 10**6))
    def test_slot_order_reaches_the_layout_orders(self, seed):
        # low-rank factors whose slot ids repeat within and across factors,
        # one dense factor with slot ids, and a variable of degree 0
        rng = np.random.default_rng(seed)
        bindings = []
        for _ in range(int(rng.integers(0, 7))):
            scope = tuple(rng.choice(5, size=int(rng.integers(1, 4)), replace=False).tolist())
            slots = tuple(f"s{k}" for k in rng.integers(0, 4, size=len(scope)))
            bindings.append(FactorBinding(scope, LowRankPayload(f"p{len(scope)}"), slots))
        bindings.append(FactorBinding((3, 1), DensePayload(np.ones((2, 2))), ("s0", "t")))
        params = {f"p{n}": cp_random(n, 2, 2, seed=n) for n in (1, 2, 3)}
        g = build_graph(6, 2, bindings, params=params)
        lay, sl = g.layout, g.slots
        raveled = [e for _, block in sl.groups for e in block.ravel().tolist()]
        assert sl.edges.tolist() == raveled and sorted(raveled) == list(range(lay.var.size))
        assert sl.var.tolist() == lay.var[sl.edges].tolist()
        assert sl.edges[sl.to_blocks].tolist() == lay.block_edges.tolist()
        assert [(vs.tolist(), sl.edges[rows].tolist()) for vs, rows in sl.buckets] == \
            [(vs.tolist(), e.tolist()) for vs, e in lay.buckets]
        identity = list(range(lay.var.size))
        assert sl.to_blocks[sl.from_blocks].tolist() == identity
        assert sl.from_blocks[sl.to_blocks].tolist() == identity

    def test_graph_owns_its_inputs(self):
        # build copies the unary, the params table and (through CPFactor and
        # DensePayload) the weights and the dense table, and exposes them
        # read-only, so no write to the caller's arrays reaches a solve
        rng = np.random.default_rng(6)
        unary, weights = rng.uniform(0.1, 1.0, size=(4, 3)), rng.uniform(0.1, 1.0, size=(3, 3, 2))
        table = rng.uniform(size=(3, 3))
        params = {"p": CPFactor(3, 3, 2, weights)}
        g = build_graph(4, 3, [FactorBinding((0, 1, 2), LowRankPayload("p")),
                               FactorBinding((2, 3), DensePayload(table))],
                        unary=unary, params=params)
        before, (joint, z) = run_lbp(g).beliefs, joint_table(g)
        unary[:, 0] = 100.0
        weights[:, 0] = 100.0
        table[:, 0] = 100.0
        params["p"] = cp_random(3, 3, 2, seed=6)
        assert run_lbp(g).beliefs.tobytes() == before.tobytes()
        assert same_bits(joint_table(g)[0], joint) and joint_table(g)[1] == z
        with pytest.raises(TypeError):
            g.params["p"] = params["p"]
        with pytest.raises(ValueError, match="read-only"):
            g.unary[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            g.params["p"].weights[0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            g.factors[1].payload.table[0, 0] = 1.0

    def test_equality_is_identity(self):
        # field-wise equality would compare the unary arrays and hash the params dict
        def make():
            return build_graph(2, 2, [FactorBinding((0, 1), DensePayload(np.ones((2, 2))))],
                               unary=np.ones((2, 2)), params={"p": cp_random(2, 2, 1, seed=0)})

        g, h = make(), make()
        assert g == g and g != h and not (g == h)
        assert g in {g} and h not in {g}
        assert len({g, h, g}) == 2

    def test_records_holding_arrays_compare_by_identity(self):
        # field-wise equality would compare arrays (ValueError) and hash them (TypeError)
        from lrbp.neural import HiddenStates, init_layer_params

        for make in (lambda: cp_random(2, 2, 2, seed=0),
                     lambda: DensePayload(np.ones((2, 2))),
                     lambda: HiddenStates(np.ones((2, 3))),
                     lambda: init_layer_params(["a"], d_h=3, rank=2)):
            x = make()
            assert x == x and x != make() and hash(x) == hash(x)
        table = np.ones((2, 2))
        payload = DensePayload(table)
        binding = FactorBinding((0, 1), payload)
        assert binding == FactorBinding((0, 1), payload)
        assert binding != FactorBinding((0, 1), DensePayload(table))
        assert len({binding, FactorBinding((0, 1), payload)}) == 1
        # a low-rank payload keeps value equality
        assert LowRankPayload("p") == LowRankPayload("p")


class TestJointTable:
    def test_single_unary(self):
        g = build_graph(1, 2, [], unary=[[2.0, 6.0]])
        joint, z = joint_table(g)
        assert z == 8.0
        assert np.array_equal(joint, [2.0, 6.0])

    def test_two_independent_unaries(self):
        g = build_graph(2, 2, [], unary=[[1.0, 1.0], [1.0, 1.0]])
        joint, z = joint_table(g)
        assert z == 4.0
        assert np.array_equal(joint, np.ones((2, 2)))

    def test_lowrank_factor_matches_enumeration(self):
        cp = cp_random(3, 2, 4, seed=8)
        rng = np.random.default_rng(8)
        bindings = [
            FactorBinding((0, 2, 3), LowRankPayload("p")),
            FactorBinding((1, 2), DensePayload(rng.uniform(size=(2, 2)))),
        ]
        g = build_graph(4, 2, bindings, unary=rng.uniform(size=(4, 2)), params={"p": cp})
        _, z = joint_table(g)
        assert abs(z - enumerate_z(g)) <= 1e-10 * abs(z)

    def test_scope_order_respected(self):
        # non-sorted scope must land each axis on the right variable
        table = np.array([[0.0, 1.0], [2.0, 3.0]])  # f(x1, x0)
        g = build_graph(2, 2, [FactorBinding((1, 0), DensePayload(table))])
        joint, _ = joint_table(g)
        for x0 in range(2):
            for x1 in range(2):
                assert joint[x0, x1] == table[x1, x0]

    def test_z_invariant_to_factor_permutation(self):
        rng = np.random.default_rng(13)
        bindings = [
            FactorBinding((0, 1), DensePayload(rng.uniform(size=(2, 2)))),
            FactorBinding((1, 2), DensePayload(rng.uniform(size=(2, 2)))),
            FactorBinding((0, 2), DensePayload(rng.uniform(size=(2, 2)))),
        ]
        g = build_graph(3, 2, bindings)
        g_perm = build_graph(3, 2, [bindings[2], bindings[0], bindings[1]])
        _, z1 = joint_table(g)
        _, z2 = joint_table(g_perm)
        assert abs(z1 - z2) <= 1e-12 * abs(z1)

    def test_capacity_error(self):
        # 2**24 elements is past CAPACITY; the check raises before any allocation
        assert 2**23 < CAPACITY < 2**24
        g = build_graph(24, 2, [], unary=np.ones((24, 2)))
        with pytest.raises(CapacityError, match=f"{2**24} elements"):
            joint_table(g)

    def test_zero_mass_rejected(self):
        g = build_graph(1, 2, [], unary=[[0.0, 0.0]])
        with pytest.raises(GraphError, match="zero total mass"):
            joint_table(g)

    @pytest.mark.parametrize("table, unary, mass", [
        (np.ones((2, 2)), [[np.nan, 1.0], [1.0, 1.0]], "nan"),
        (np.ones((2, 2)), [[np.inf, 1.0], [1.0, 1.0]], "inf"),
        # inf times the table's zero entry
        (np.eye(2), [[np.inf, 1.0], [1.0, 1.0]], "nan"),
        # finite entries whose product overflows
        (np.eye(2), [[1e200, 1.0], [1e200, 1.0]], "inf"),
    ])
    def test_non_finite_mass_rejected_without_runtime_warnings(self, table, unary, mass):
        g = build_graph(2, 2, [FactorBinding((0, 1), DensePayload(table))], unary=unary)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for solve in (joint_table, exact_marginals):
                with pytest.raises(GraphError, match=f"joint table has total mass {mass}$"):
                    solve(g)


class TestGraphFile:
    def make_graph(self):
        rng = np.random.default_rng(17)
        cp = cp_random(3, 3, 5, seed=17)
        bindings = [
            FactorBinding((0, 1), DensePayload(rng.uniform(size=(3, 3)))),
            FactorBinding((1, 2, 3), LowRankPayload("shared"), slot_ids=("s0", "s1", "s2")),
            FactorBinding((0, 2, 3), LowRankPayload("shared")),
        ]
        return build_graph(
            4, 3, bindings, unary=rng.uniform(size=(4, 3)), params={"shared": cp}
        )

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), with_unary=st.booleans(), with_slots=st.booleans())
    def test_round_trip_value_exact(self, tmp_path_factory, seed, with_unary, with_slots):
        g = mixed_graph(seed, with_unary, with_slots)
        path = tmp_path_factory.mktemp("graph") / "graph.json"
        save_graph(g, path)
        h = load_graph(path)
        assert (h.num_vars, h.cardinality) == (g.num_vars, g.cardinality)
        assert same_bits(h.unary, g.unary)
        assert len(h.factors) == len(g.factors)
        for fa, fb in zip(g.factors, h.factors):
            assert (fa.scope, fa.slot_ids, type(fa.payload)) == (fb.scope, fb.slot_ids, type(fb.payload))
            if isinstance(fa.payload, DensePayload):
                assert same_bits(fa.payload.table, fb.payload.table)
            else:
                assert fa.payload == fb.payload
        assert list(h.params) == list(g.params)
        for pid, cp in g.params.items():
            got = h.params[pid]
            assert (got.arity, got.cardinality, got.rank) == (cp.arity, cp.cardinality, cp.rank)
            assert same_bits(cp.weights, got.weights)

    def test_round_trip_twice_is_identical(self, tmp_path):
        g = self.make_graph()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_graph(g, p1)
        save_graph(load_graph(p1), p2)
        assert p1.read_text() == p2.read_text()

    def test_graph_without_variables_round_trips(self, tmp_path):
        # save_graph writes the (0, 3) unary as [], which keeps no shape
        path = tmp_path / "graph.json"
        for g in (build_graph(0, 3, []), build_graph(0, 3, [], unary=[])):
            assert g.unary.shape == (0, 3)
            save_graph(g, path)
            h = load_graph(path)
            assert (h.num_vars, h.cardinality, h.factors) == (0, 3, ())
            assert h.unary.shape == (0, 3) and h.unary.dtype == np.float64

    def test_numpy_integer_sizes_round_trip(self, tmp_path):
        # a CP factor stores its sizes as Python ints, which JSON can write
        cp = CPFactor(2, np.int64(3), np.int32(2), np.ones((2, 3, 2)))
        g = build_graph(2, 3, [FactorBinding((0, 1), LowRankPayload("p"))], params={"p": cp})
        path = tmp_path / "graph.json"
        save_graph(g, path)
        got = load_graph(path).params["p"]
        assert (got.arity, got.cardinality, got.rank) == (2, 3, 2)
        assert same_bits(got.weights, cp.weights)

    def test_null_or_absent_unary_and_params_load_as_defaults(self, tmp_path):
        dense = {"kind": "dense", "shape": [2, 2], "data": [1.0, 2.0, 3.0, 4.0]}
        base = {"num_vars": 2, "cardinality": 2, "factors": [{"scope": [0, 1], "payload": dense}]}
        path = tmp_path / "graph.json"
        for extra in ({}, {"unary": None, "params": None}):
            path.write_text(json.dumps({**base, **extra}))
            g = load_graph(path)
            assert same_bits(g.unary, np.ones((2, 2))) and dict(g.params) == {}

    def test_missing_field_reported(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"num_vars": 2}))
        with pytest.raises(GraphError, match="cardinality"):
            load_graph(path)
        path.write_text(json.dumps([2, 2]))
        with pytest.raises(GraphError, match="JSON list, expected an object"):
            load_graph(path)

    def test_unknown_payload_kind_reported(self, tmp_path):
        doc = {
            "num_vars": 1,
            "cardinality": 2,
            "unary": None,
            "factors": [{"scope": [0], "payload": {"kind": "sparse"}}],
            "params": {},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(GraphError, match="sparse"):
            load_graph(path)

    @pytest.mark.parametrize("path, value, match", [
        ("params/p/weights", 5, "param 'p'"),
        ("params/p", None, "param 'p'"),
        ("factors/1/payload/shape", 2, "factor 1"),
        ("factors/0/scope", ["x"], "factor 0"),
        ("factors/0/slots", 5, "factor 0"),
        ("factors/1", 5, "factor 1"),
        ("num_vars", None, "num_vars"),
        ("factors", 5, "factors must be a list"),
        # only an absent or null params field means no params
        ("params", [1], "params an object"),
        ("params", [], "params an object"),
        ("params", 0, "params an object"),
        ("params", "", "params an object"),
        ("params", False, "params an object"),
        ("unary", [[1.0, "x"], [1.0, 1.0]], "unary"),
        ("unary", [[1.0, 1.0]], r"^unary has shape \(1, 2\), expected \(2, 2\)$"),
        ("unary", [], r"^unary has shape \(0,\), expected \(2, 2\)$"),
        ("factors/0/scope", [], "^factor 0: empty scope$"),
        ("factors/0/slots", ["a"], "^factor 0: slot_ids length 1 != scope length 2$"),
        ("factors/0/payload", {"kind": "lowrank"}, "^factor 0: missing field 'param_id'$"),
        ("params/p", {"arity": 2, "d": 3, "rank": 1, "weights": [[[1.0]] * 3] * 2},
         "^factor 0: low-rank cardinality 3 != 2$"),
        # ragged, and of rank 2 where the spec says 1
        ("params/p/weights", [[[1.0], [1.0]], [[1.0]]], r"param 'p'.*expected shape \(2, 2, 1\)"),
        ("params/p/weights", [[[1.0, 1.0]] * 2] * 2, r"param 'p'.*expected shape \(2, 2, 1\)"),
        # a dense shape whose axes are not all >= 1, and data of the wrong length
        ("factors/1/payload/shape", [0], "factor 1: dense shape .* axis below 1"),
        ("factors/1/payload/shape", [-1, 2], "factor 1: dense shape .* axis below 1"),
        ("factors/1/payload/shape", [], "factor 1.*reshape"),
        ("factors/1/payload/data", [1.0, 2.0, 3.0], "factor 1.*reshape"),
        # integers are not truncated from floats or bools
        ("num_vars", 2.9, "num_vars must be an integer"),
        ("cardinality", True, "cardinality must be an integer"),
        ("factors/0/scope", [0.4, 1.6], "factor 0: scope entry must be an integer"),
        ("factors/0/scope", [0, True], "factor 0: scope entry must be an integer"),
        ("params/p/arity", 2.0, "param 'p': arity must be an integer, got 2.0"),
        ("params/p/d", 2.5, "param 'p': d must be an integer"),
        ("params/p/rank", True, "param 'p': rank must be an integer"),
        ("factors/1/payload/shape", [2.7], "factor 1: shape entry must be an integer"),
        # slot ids are a list of strings
        ("factors/0/slots", [1, 2], "factor 0: slot ids must be strings"),
        ("factors/0/slots", ["a", None], "factor 0: slot ids must be strings"),
        ("factors/0/slots", "ab", "factor 0: slots must be null or a list"),
        # a param id is a string, not coerced to one
        ("factors/0/payload/param_id", 5, "factor 0: param_id must be a string, got 5"),
        # arrays hold numbers: strings, bools and null are refused, not
        # converted (NumPy's promotion of true mixed with numbers to a number
        # is out of scope)
        ("factors/1/payload/data", ["0.5", "1e3"], "factor 1: data must be real numbers"),
        ("factors/1/payload/data", [True, True], "factor 1: data must be real numbers"),
        ("factors/1/payload/data", [None, 1.0], "factor 1: data must be real numbers"),
        ("unary", [["0.5", "1e3"], ["1", "1"]], "unary must be real numbers"),
        ("unary", [[True, True], [True, True]], "unary must be real numbers"),
        ("unary", [[None, 1.0], [1.0, 1.0]], "unary must be real numbers"),
        ("params/p/weights", [[["0.5"], ["1e3"]]] * 2, "param 'p': weights must be real numbers"),
        ("params/p/weights", [[[True], [True]]] * 2, "param 'p': weights must be real numbers"),
        ("params/p/weights", [[[None], [1.0]]] * 2, "param 'p': weights must be real numbers"),
    ])
    def test_malformed_value_reported_as_graph_error(self, tmp_path, path, value, match):
        doc = {
            "num_vars": 2,
            "cardinality": 2,
            "unary": None,
            "factors": [
                {"scope": [0, 1], "payload": {"kind": "lowrank", "param_id": "p"}},
                {"scope": [1], "payload": {"kind": "dense", "shape": [2], "data": [1.0, 2.0]}},
            ],
            "params": {"p": {"arity": 2, "d": 2, "rank": 1, "weights": [[[1.0], [1.0]]] * 2}},
        }
        *keys, last = [int(k) if k.isdigit() else k for k in path.split("/")]
        parent = doc
        for key in keys:
            parent = parent[key]
        parent[last] = value
        file = tmp_path / "bad.json"
        file.write_text(json.dumps(doc))
        with pytest.raises(GraphError, match=match):
            load_graph(file)
