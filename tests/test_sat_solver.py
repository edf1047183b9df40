"""CDCL solver tests: correctness against brute force, incrementality,
assumptions, budgets, and the Luby sequence."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sat.solver import BudgetExceeded, SatSolver, _luby


def brute_force_sat(num_vars: int, clauses: list[list[int]]) -> bool:
    for bits in itertools.product([False, True], repeat=num_vars):
        if all(any(bits[abs(l) - 1] ^ (l < 0) for l in clause) for clause in clauses):
            return True
    return False


def make_solver(num_vars: int, clauses: list[list[int]]) -> SatSolver:
    solver = SatSolver()
    for _ in range(num_vars):
        solver.new_var()
    for clause in clauses:
        solver.add_clause(clause)
    return solver


class TestBasics:
    def test_empty_problem_is_sat(self):
        assert SatSolver().solve()

    def test_unit_clause(self):
        solver = make_solver(1, [[1]])
        assert solver.solve()
        assert 1 in solver.model()

    def test_contradictory_units(self):
        solver = make_solver(1, [[1], [-1]])
        assert not solver.solve()

    def test_simple_implication_chain(self):
        solver = make_solver(3, [[1], [-1, 2], [-2, 3]])
        assert solver.solve()
        assert solver.model() == {1, 2, 3}

    def test_pigeonhole_2_into_1(self):
        # Two pigeons, one hole: p1 and p2 both in hole, but not together.
        solver = make_solver(2, [[1], [2], [-1, -2]])
        assert not solver.solve()

    def test_tautology_dropped(self):
        solver = make_solver(2, [[1, -1]])
        assert solver.solve()

    def test_duplicate_literals_merged(self):
        solver = make_solver(1, [[1, 1, 1]])
        assert solver.solve()
        assert 1 in solver.model()

    def test_zero_literal_rejected(self):
        solver = SatSolver()
        solver.new_var()
        with pytest.raises(ValueError):
            solver.add_clause([0])

    def test_model_satisfies_clauses(self):
        clauses = [[1, 2], [-1, 3], [-2, -3], [2, 3]]
        solver = make_solver(3, clauses)
        assert solver.solve()
        model = solver.model()
        for clause in clauses:
            assert any((abs(l) in model) == (l > 0) for l in clause)


class TestAgainstBruteForce:
    @given(
        st.integers(min_value=2, max_value=7).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.lists(
                        st.integers(min_value=1, max_value=n).flatmap(
                            lambda v: st.sampled_from([v, -v])
                        ),
                        min_size=1,
                        max_size=3,
                    ),
                    min_size=1,
                    max_size=25,
                ),
            )
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, problem):
        num_vars, clauses = problem
        solver = make_solver(num_vars, clauses)
        assert solver.solve() == brute_force_sat(num_vars, clauses)

    @given(
        st.lists(
            st.lists(
                st.integers(min_value=1, max_value=5).flatmap(
                    lambda v: st.sampled_from([v, -v])
                ),
                min_size=2,
                max_size=3,
            ),
            min_size=1,
            max_size=15,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_sat_answers_come_with_valid_models(self, clauses):
        solver = make_solver(5, clauses)
        if solver.solve():
            model = solver.model()
            for clause in clauses:
                assert any((abs(l) in model) == (l > 0) for l in clause)


class TestIncremental:
    def test_enumerate_all_models(self):
        solver = make_solver(4, [[1, 2, 3, 4]])
        count = 0
        while solver.solve():
            count += 1
            solver.add_clause([-l for l in solver.model_list()])
        assert count == 15  # all assignments except all-false

    def test_clauses_after_sat_answer(self):
        solver = make_solver(2, [[1, 2]])
        assert solver.solve()
        solver.add_clause([-1])
        solver.add_clause([-2])
        assert not solver.solve()


class TestAssumptions:
    def test_assumption_forces_value(self):
        solver = make_solver(2, [[1, 2]])
        assert solver.solve([-1])
        assert 2 in solver.model()

    def test_conflicting_assumptions(self):
        solver = make_solver(2, [[1, 2], [-1, -2]])
        assert not solver.solve([1, 2])

    def test_assumption_against_unit(self):
        solver = make_solver(1, [[1]])
        assert not solver.solve([-1])

    def test_solver_reusable_after_assumption_failure(self):
        solver = make_solver(1, [[1]])
        assert not solver.solve([-1])
        assert solver.solve()


class TestBudget:
    def test_budget_raises(self):
        # Pigeonhole PHP(4,3) is small but needs search.
        clauses = []
        holes, pigeons = 3, 4

        def var(p, h):
            return p * holes + h + 1

        for p in range(pigeons):
            clauses.append([var(p, h) for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    clauses.append([-var(p1, h), -var(p2, h)])
        solver = make_solver(pigeons * holes, clauses)
        with pytest.raises(BudgetExceeded):
            solver.solve(conflict_limit=2)
        # Without the budget the same solver proves it unsatisfiable.
        assert solver.solve() is False

    def test_generous_budget_succeeds(self):
        solver = make_solver(3, [[1, 2], [-1, 3]])
        assert solver.solve(conflict_limit=100)


class TestLuby:
    def test_first_fifteen_elements(self):
        expected = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]
        assert [_luby(i) for i in range(1, 16)] == expected

    def test_terminates_for_all_small_inputs(self):
        for i in range(1, 2000):
            value = _luby(i)
            assert value >= 1 and value & (value - 1) == 0  # power of two

    def test_stats_populated(self):
        solver = make_solver(3, [[1, 2], [-1, 2], [1, -2], [-1, -2, 3]])
        solver.solve()
        assert solver.stats.propagations > 0
