"""ILP modeling layer and solver tests (the AMPL/CPLEX substitute)."""

import gc
import math
import pickle
import weakref

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.ilp.hints import form_digest
from repro.ilp.model import LinExpr, Model
from repro.ilp.options import SolveOptions
from repro.ilp.solve import solve_model, solve_root_relaxation, standard_form

from tests.helpers import record_calls


def knapsack_model(values, weights, capacity):
    m = Model("knapsack")
    x = m.family("x")
    m.add({x[(i,)]: w for i, w in enumerate(weights)}, "<=", capacity)
    # milp minimizes; maximize value = minimize -value
    m.minimize({x[(i,)]: -v for i, v in enumerate(values)})
    return m, x


#: Row and objective coefficients of either Python number type.
COEFFICIENTS = st.one_of(
    st.integers(-3, 3),
    st.floats(-3, 3, allow_nan=False),
    st.sampled_from([0, 0.0, -0.0]),
)


def row_loop_form(rows, objective, num_vars):
    """Standard form built row by row from ``(coeffs, sense, rhs)``
    triples: the conversion the model's flat arrays replaced, kept as
    the reference."""
    row_ids, col_ids, data = [], [], []
    lb = np.empty(len(rows))
    ub = np.empty(len(rows))
    for i, (coeffs, sense, rhs) in enumerate(rows):
        for var, coef in coeffs.items():
            row_ids.append(i)
            col_ids.append(var)
            data.append(coef)
        if sense == "<=":
            lb[i], ub[i] = -np.inf, rhs
        elif sense == ">=":
            lb[i], ub[i] = rhs, np.inf
        else:
            lb[i], ub[i] = rhs, rhs
    matrix = sparse.csr_matrix(
        (data, (row_ids, col_ids)), shape=(len(rows), num_vars)
    )
    c = np.zeros(num_vars)
    for var, coef in objective.items():
        c[var] = coef
    return c, matrix, lb, ub


class TestModel:
    def test_family_indexing(self):
        m = Model()
        before = m.family("Before")
        a = before[("p1", "v", "A")]
        b = before[("p1", "v", "B")]
        assert a != b
        assert before[("p1", "v", "A")] == a  # idempotent
        assert len(before) == 2
        assert m.name_of(a) == "Before[p1,v,A]"

    def test_families_are_namespaced(self):
        m = Model()
        assert m.family("X")[(1,)] != m.family("Y")[(1,)]

    def test_linexpr_accumulates(self):
        e = LinExpr()
        e.add(0, 1.0).add(0, 2.0).add(1, -1.0)
        assert e.coeffs == {0: 3.0, 1: -1.0}

    def test_bad_sense_rejected(self):
        m = Model()
        x = m.family("x")[(0,)]
        with pytest.raises(ValueError):
            m.add({x: 1.0}, "<", 1)

    def test_standard_form_shapes(self):
        m = Model()
        x = m.family("x")
        m.add({x[(0,)]: 1.0, x[(1,)]: 2.0}, "<=", 3)
        m.add({x[(0,)]: 1.0}, "==", 1)
        m.add({x[(1,)]: 1.0}, ">=", 0)
        c, matrix, lb, ub = standard_form(m)
        assert matrix.shape == (3, 2)
        assert ub[0] == 3 and lb[0] == -np.inf
        assert lb[1] == ub[1] == 1
        assert lb[2] == 0 and ub[2] == np.inf

    def test_stats(self):
        m = Model()
        x = m.family("x")
        m.add_sum_eq([x[(0,)], x[(1,)]], 1)
        m.minimize({x[(0,)]: 2.0})
        assert m.stats() == {
            "variables": 2,
            "constraints": 1,
            "objective_terms": 1,
        }

    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(
                        st.dictionaries(st.integers(0, n - 1), COEFFICIENTS),
                        st.sampled_from(["<=", ">=", "=="]),
                        COEFFICIENTS,
                    ),
                    max_size=6,
                ),
                st.dictionaries(st.integers(0, n - 1), COEFFICIENTS),
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_standard_form_matches_the_row_loop(self, case):
        """The flat arrays give the bytes the per-row conversion gave,
        int-only rows, explicit zeros and empty rows included."""
        num_vars, rows, objective = case
        m = Model()
        x = m.family("x")
        for i in range(num_vars):
            x[(i,)]  # declares variable i
        for coeffs, sense, rhs in rows:
            m.add(coeffs, sense, rhs)
        m.minimize(objective)
        expected = row_loop_form(rows, m.objective, num_vars)
        form = standard_form(m)
        assert form[1].shape == expected[1].shape
        assert form_digest(form) == form_digest(expected)

    def test_add_copies_the_row(self):
        m = Model()
        x = m.family("x")
        row = {x[(0,)]: 1.0, x[(1,)]: 2.0}
        m.add(row, "<=", 3)
        row[x[(0,)]] = 5.0
        _, matrix, _, _ = standard_form(m)
        assert matrix.toarray().tolist() == [[1.0, 2.0]]

    def test_families_are_views_of_the_model(self):
        m = Model()
        before = m.family("Before")
        a = before[("p", "v", "A")]
        # An alias (Before and After share a variable where no move may
        # happen) is named after the family that declared it first.
        m.family("After").index[("p", "v", "A")] = a
        assert m.family("After")[("p", "v", "A")] == a
        assert sorted(m.families) == ["After", "Before"]
        assert len(m.families["After"]) == 1
        assert m.name_of(a) == "Before[p,v,A]"
        with pytest.raises(IndexError):
            m.name_of(1)

    def test_dropped_model_is_freed_without_the_collector(self):
        # No reference cycle: a dropped model goes at once, not at the
        # next full collection.
        m = knapsack_model([1, 2], [1, 1], capacity=1)[0]
        standard_form(m)
        ref = weakref.ref(m)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            del m
            assert ref() is None
        finally:
            if was_enabled:
                gc.enable()

    def test_model_pickles(self):
        m, x = knapsack_model([3, 4, 5], [2, 3, 4], capacity=5)
        copy = pickle.loads(pickle.dumps(m))
        assert form_digest(standard_form(copy)) == form_digest(standard_form(m))
        assert copy.family("x").get((2,)) == x.get((2,))


class TestSolvers:
    @pytest.mark.parametrize("engine", ["highs", "bnb"])
    def test_trivial(self, engine):
        m = Model()
        x = m.family("x")
        m.add_sum_eq([x[(0,)], x[(1,)]], 1)
        m.minimize({x[(0,)]: 1.0, x[(1,)]: 3.0})
        sol = solve_model(m, SolveOptions(engine=engine))
        assert sol.status == "optimal"
        assert sol.is_one(x.get((0,)))
        assert not sol.is_one(x.get((1,)))
        assert sol.objective == pytest.approx(1.0)

    @pytest.mark.parametrize("engine", ["highs", "bnb"])
    def test_knapsack(self, engine):
        values = [10, 13, 7, 8, 2]
        weights = [5, 6, 3, 4, 1]
        m, x = knapsack_model(values, weights, capacity=10)
        sol = solve_model(m, SolveOptions(engine=engine))
        assert sol.status == "optimal"
        chosen = [i for i in range(5) if sol.is_one(x.get((i,)))]
        assert sum(weights[i] for i in chosen) <= 10
        # Best bundle: values {13, 7, 2} with weights {6, 3, 1} = 22.
        assert -sol.objective == pytest.approx(22)

    @pytest.mark.parametrize("engine", ["highs", "bnb"])
    def test_infeasible(self, engine):
        m = Model()
        x = m.family("x")[(0,)]
        m.add({x: 1.0}, ">=", 2)  # binary cannot reach 2
        sol = solve_model(m, SolveOptions(engine=engine))
        assert sol.status == "infeasible"
        assert math.isinf(sol.objective)

    def test_empty_model(self):
        sol = solve_model(Model())
        assert sol.status == "optimal"
        assert sol.objective == 0.0

    def test_root_relaxation_is_lower_bound(self):
        values = [10, 13, 7, 8, 2]
        weights = [5, 6, 3, 4, 1]
        m, _ = knapsack_model(values, weights, capacity=10)
        relaxed, seconds, _ = solve_root_relaxation(m)
        integer = solve_model(m)
        assert relaxed <= integer.objective + 1e-6
        assert seconds >= 0

    def test_bnb_counts_nodes(self):
        values = [3, 5, 2, 7, 4, 6]
        weights = [2, 4, 1, 5, 3, 4]
        m, _ = knapsack_model(values, weights, capacity=8)
        sol = solve_model(m, SolveOptions(engine="bnb"))
        assert sol.status == "optimal"
        assert sol.nodes >= 1

    @given(
        st.lists(
            st.tuples(st.integers(1, 20), st.integers(1, 10)),
            min_size=1,
            max_size=7,
        ),
        st.integers(1, 25),
    )
    @settings(max_examples=25, deadline=None)
    def test_engines_agree_property(self, items, capacity):
        """Our branch-and-bound matches HiGHS on random knapsacks."""
        values = [v for v, _ in items]
        weights = [w for _, w in items]
        m1, _ = knapsack_model(values, weights, capacity)
        m2, _ = knapsack_model(values, weights, capacity)
        a = solve_model(m1, SolveOptions(engine="highs"))
        b = solve_model(m2, SolveOptions(engine="bnb"))
        assert a.status == b.status == "optimal"
        assert a.objective == pytest.approx(b.objective, abs=1e-6)


def exclusive_triple_model():
    """Three pairwise-exclusive 0-1 variables, maximised: the LP optimum
    is all halves (1.5), the ILP's is one variable (1)."""
    m = Model("triple")
    x = m.family("x")
    for i, j in ((0, 1), (1, 2), (0, 2)):
        m.add({x[(i,)]: 1.0, x[(j,)]: 1.0}, "<=", 1)
    m.minimize({x[(i,)]: -1.0 for i in range(3)})
    return m


class TestRootRelaxationAnswer:
    """``root_relaxation`` solves the LP first; an integral vertex that
    satisfies every row is the answer, anything else goes to milp."""

    def test_integral_vertex_ends_the_solve(self, monkeypatch):
        record_calls(monkeypatch, scipy.optimize, "milp", fail=True)
        m = Model()
        x = m.family("x")
        m.add_sum_eq([x[(0,)], x[(1,)]], 1)
        m.minimize({x[(0,)]: 1.0, x[(1,)]: 3.0})
        sol = solve_model(m, SolveOptions(root_relaxation=True))
        assert sol.status == "optimal"
        assert sol.objective == 1.0
        assert list(sol.values) == [1.0, 0.0]
        assert (sol.nodes, sol.gap) == (1, 0.0)
        assert sol.root_relaxation_seconds == sol.integer_seconds > 0

    def test_fractional_vertex_goes_to_milp(self, monkeypatch):
        relaxed, _, x = solve_root_relaxation(exclusive_triple_model())
        assert relaxed == pytest.approx(-1.5)
        assert x == pytest.approx([0.5] * 3)
        limits = []
        for name in ("linprog", "milp"):

            def call(*args, _name=name, _real=getattr(scipy.optimize, name), **kw):
                limits.append((_name, kw["options"]["time_limit"]))
                return _real(*args, **kw)

            monkeypatch.setattr(scipy.optimize, name, call)
        sol = solve_model(
            exclusive_triple_model(),
            SolveOptions(root_relaxation=True, time_limit=100.0),
        )
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(-1.0)
        assert sol.values.sum() == 1.0
        assert sol.root_relaxation_seconds > 0
        # time_limit bounds the whole solve: milp gets what the LP left.
        (lp, lp_limit), (ilp, ilp_limit) = limits
        assert (lp, lp_limit, ilp) == ("linprog", 100.0, "milp")
        assert ilp_limit == pytest.approx(100.0 - sol.root_relaxation_seconds)
        assert ilp_limit < 100.0

    def test_infeasible_lp_goes_to_milp(self, monkeypatch):
        calls = record_calls(monkeypatch, scipy.optimize, "milp")
        m = Model()
        x = m.family("x")[(0,)]
        m.add({x: 1.0}, ">=", 2)
        sol = solve_model(m, SolveOptions(root_relaxation=True))
        assert len(calls) == 1
        assert sol.status == "infeasible"


class TestSolutionHelpers:
    def test_ones(self):
        m = Model()
        x = m.family("x")
        m.add_sum_eq([x[(i,)] for i in range(3)], 2)
        m.minimize({x[(0,)]: 5.0})
        sol = solve_model(m)
        assert sorted(sol.ones(x)) == [(1,), (2,)]

    def test_is_one_handles_none(self):
        m = Model()
        x = m.family("x")
        m.add_sum_eq([x[(0,)]], 1)
        sol = solve_model(m)
        assert not sol.is_one(None)
        assert not sol.is_one(x.get((99,)))
