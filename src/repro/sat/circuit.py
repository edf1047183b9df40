"""Boolean circuits with hash-consing and Tseitin CNF encoding.

The analyzer grounds relational formulas into circuits built by
:class:`CircuitBuilder`; the builder shares structurally identical subcircuits
(hash-consing) and converts each circuit node to at most one auxiliary SAT
variable (Tseitin encoding) on demand.

Handles are opaque integers.  ``TRUE``/``FALSE`` are constants; negation is
handle negation, so ``-h`` is the complement of ``h`` (complement edges).
"""

from __future__ import annotations

from repro.sat.solver import SatSolver

TRUE = 1
"""Handle of the constant-true circuit."""

FALSE = -1
"""Handle of the constant-false circuit."""


class CircuitBuilder:
    """Builds shared boolean circuits and encodes them into a solver."""

    def __init__(self, solver: SatSolver) -> None:
        self._solver = solver
        # Node storage: handle h >= 2 maps to node at index h - 2.
        # A node is ("var", lit) or ("and", tuple_of_child_handles).
        self._nodes: list[tuple[str, object]] = []
        self._memo: dict[tuple[str, object], int] = {}
        self._literals: dict[int, int] = {}  # handle -> solver literal

    @property
    def solver(self) -> SatSolver:
        return self._solver

    # -- construction --------------------------------------------------------

    def var(self, lit: int) -> int:
        """A circuit input backed by solver literal ``lit``."""
        if lit == 0:
            raise ValueError("literal 0 is not allowed")
        if lit < 0:
            return -self.var(-lit)
        return self._intern(("var", lit))

    def fresh_var(self) -> int:
        """A circuit input backed by a fresh solver variable."""
        return self.var(self._solver.new_var())

    def _intern(self, node: tuple[str, object]) -> int:
        handle = self._memo.get(node)
        if handle is None:
            self._nodes.append(node)
            handle = len(self._nodes) + 1  # handles start at 2
            self._memo[node] = handle
        return handle

    def and_(self, children: list[int]) -> int:
        """Conjunction of child handles (n-ary, simplifying)."""
        unique: list[int] = []
        seen: set[int] = set()
        for child in children:
            if child == FALSE:
                return FALSE
            if child == TRUE or child in seen:
                continue
            if -child in seen:
                return FALSE
            seen.add(child)
            unique.append(child)
        if not unique:
            return TRUE
        if len(unique) == 1:
            return unique[0]
        unique.sort()
        return self._intern(("and", tuple(unique)))

    def or_(self, children: list[int]) -> int:
        """Disjunction via De Morgan over complement edges."""
        return -self.and_([-c for c in children])

    def not_(self, handle: int) -> int:
        return -handle

    def implies(self, left: int, right: int) -> int:
        return self.or_([-left, right])

    def iff(self, left: int, right: int) -> int:
        return self.and_([self.implies(left, right), self.implies(right, left)])

    def ite(self, cond: int, then: int, other: int) -> int:
        return self.and_([self.implies(cond, then), self.implies(-cond, other)])

    # -- cardinality ---------------------------------------------------------

    def at_least(self, inputs: list[int], k: int) -> int:
        """Handle that is true iff at least ``k`` of ``inputs`` are true."""
        if k <= 0:
            return TRUE
        if k > len(inputs):
            return FALSE
        # Sequential-counter DP: row[j] = "at least j of the inputs so far".
        row: list[int] = [TRUE] + [FALSE] * k
        for x in inputs:
            new_row = [TRUE] * (k + 1)
            for j in range(1, k + 1):
                new_row[j] = self.or_([row[j], self.and_([x, row[j - 1]])])
            row = new_row
        return row[k]

    def at_most(self, inputs: list[int], k: int) -> int:
        return -self.at_least(inputs, k + 1)

    def exactly(self, inputs: list[int], k: int) -> int:
        return self.and_([self.at_least(inputs, k), self.at_most(inputs, k)])

    # -- integer comparison helpers (unary counters) ---------------------------

    def count_compare(self, inputs: list[int], op: str, k: int) -> int:
        """Compare ``|true(inputs)|`` against constant ``k`` (``op`` textual)."""
        if op == "=":
            return self.exactly(inputs, k)
        if op == "!=":
            return -self.exactly(inputs, k)
        if op == "<":
            return self.at_most(inputs, k - 1)
        if op == "<=":
            return self.at_most(inputs, k)
        if op == ">":
            return self.at_least(inputs, k + 1)
        if op == ">=":
            return self.at_least(inputs, k)
        raise ValueError(f"unknown comparison operator {op!r}")

    # -- encoding ------------------------------------------------------------

    def to_literal(self, handle: int) -> int:
        """Tseitin-encode ``handle`` and return an equisatisfiable literal."""
        if handle == TRUE or handle == FALSE:
            # Use a pinned constant variable.
            lit = self._literals.get(TRUE)
            if lit is None:
                lit = self._solver.new_var()
                self._solver.add_clause([lit])
                self._literals[TRUE] = lit
            return lit if handle == TRUE else -lit
        if handle < 0:
            return -self.to_literal(-handle)
        cached = self._literals.get(handle)
        if cached is not None:
            return cached
        kind, payload = self._nodes[handle - 2]
        if kind == "var":
            lit = payload  # type: ignore[assignment]
        else:
            # Children are checked against the memo here rather than in a
            # recursive call; only unencoded children recurse.
            literals = self._literals
            to_literal = self.to_literal
            child_lits: list[int] = []
            for child in payload:  # type: ignore[union-attr]
                node = child if child > 0 else -child
                child_lit = literals.get(node)
                if child_lit is None:
                    child_lit = to_literal(node)
                child_lits.append(child_lit if child > 0 else -child_lit)
            solver = self._solver
            lit = solver.new_var()
            add_clause = solver.add_clause
            for child_lit in child_lits:
                add_clause([-lit, child_lit])
            add_clause([lit] + [-cl for cl in child_lits])
        self._literals[handle] = lit
        return lit

    def assert_true(self, handle: int) -> None:
        """Constrain the formula represented by ``handle`` to hold."""
        if handle == TRUE:
            return
        if handle == FALSE:
            # Force unsatisfiability explicitly.
            var = self._solver.new_var()
            self._solver.add_clause([var])
            self._solver.add_clause([-var])
            return
        if handle > 0:
            kind, payload = self._nodes[handle - 2]
            if kind == "and":
                for child in payload:  # type: ignore[union-attr]
                    self.assert_true(child)
                return
        self._solver.add_clause([self.to_literal(handle)])

    def assert_under(self, selector: int, handle: int) -> None:
        """Constrain ``handle`` to hold whenever ``selector`` is assumed.

        Tseitin definitions only *define* auxiliary variables, so they are
        added permanently; only the top-level unit assertions carry the
        ``-selector`` guard.  With the selector unassumed the group is inert.
        """
        if handle == TRUE:
            return
        if handle == FALSE:
            # Assuming the selector must yield immediate UNSAT.
            self._solver.add_clause([-selector])
            return
        if handle > 0:
            kind, payload = self._nodes[handle - 2]
            if kind == "and":
                for child in payload:  # type: ignore[union-attr]
                    self.assert_under(selector, child)
                return
        self._solver.add_clause([-selector, self.to_literal(handle)])

    def evaluate(self, handle: int, true_lits: set[int]) -> bool:
        """Evaluate a circuit under an assignment (set of true literals)."""
        if handle == TRUE:
            return True
        if handle == FALSE:
            return False
        if handle < 0:
            return not self.evaluate(-handle, true_lits)
        kind, payload = self._nodes[handle - 2]
        if kind == "var":
            lit = payload  # type: ignore[assignment]
            return lit in true_lits if lit > 0 else -lit not in true_lits
        return all(self.evaluate(c, true_lits) for c in payload)  # type: ignore[union-attr]
