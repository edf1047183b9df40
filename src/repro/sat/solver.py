"""A CDCL SAT solver.

This is the boolean engine underneath the bounded analyzer, playing the role
that MiniSat/SAT4J play underneath the real Alloy Analyzer.  Features:

- two-literal watching,
- first-UIP conflict analysis with clause learning,
- VSIDS activity-based decision heuristic (indexed max-heap) with phase saving,
- Luby-sequence restarts,
- incremental solving (clauses may be added between ``solve`` calls, which is
  how instance enumeration adds blocking clauses),
- assumption-based sessions (:class:`SolveSession`): clause groups guarded by
  selector literals, activated per ``solve`` call, retired when stale.

Literals are non-zero integers: ``+v`` for variable ``v``, ``-v`` for its
negation (DIMACS convention).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro import chaos, obs


@dataclass
class SolverStats:
    """Counters exposed for benchmarking and diagnostics."""

    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    learned_clauses: int = 0
    restarts: int = 0

    def delta(self, since: "SolverStats") -> "SolverStats":
        """The per-call view: counts accumulated after ``since``."""
        return SolverStats(
            decisions=self.decisions - since.decisions,
            propagations=self.propagations - since.propagations,
            conflicts=self.conflicts - since.conflicts,
            learned_clauses=self.learned_clauses - since.learned_clauses,
            restarts=self.restarts - since.restarts,
        )

    def copy(self) -> "SolverStats":
        return SolverStats(
            decisions=self.decisions,
            propagations=self.propagations,
            conflicts=self.conflicts,
            learned_clauses=self.learned_clauses,
            restarts=self.restarts,
        )


class Unsatisfiable(Exception):
    """Raised internally when the formula is unsatisfiable at level 0."""


class BudgetExceeded(Exception):
    """Raised when a solve call exceeds its conflict limit."""


_UNASSIGNED = 0
_TRUE = 1
_FALSE = -1


def _luby(i: int) -> int:
    """The i-th element (1-based) of the Luby restart sequence
    (1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, ...)."""
    while True:
        k = 1
        while (1 << k) - 1 < i:
            k += 1
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i = i - (1 << (k - 1)) + 1


class SatSolver:
    """An incremental CDCL solver over integer literals."""

    def __init__(self) -> None:
        self._num_vars = 0
        self._clauses: list[list[int]] = []
        self._watches: dict[int, list[int]] = {}
        self._values: list[int] = [0]  # 1-indexed by variable
        self._levels: list[int] = [0]
        self._reasons: list[int | None] = [None]
        self._phases: list[bool] = [False]
        self._activity: list[float] = [0.0]
        self._activity_inc = 1.0
        self._heap: list[tuple[float, int]] = []  # lazy (-activity, var)
        self._trail: list[int] = []
        self._trail_limits: list[int] = []
        self._propagate_head = 0
        self._root_conflict = False
        self.stats = SolverStats()
        self.last_solve = SolverStats()
        """Counters for the most recent :meth:`solve` call only.  ``stats``
        accumulates across the solver's lifetime (instance enumeration adds
        clauses and re-solves), so per-call diagnostics must come from here
        — reading ``stats`` after the second call double-counts."""

    # -- problem construction ------------------------------------------------

    def new_var(self) -> int:
        """Allocate and return a fresh variable."""
        self._num_vars += 1
        var = self._num_vars
        self._values.append(_UNASSIGNED)
        self._levels.append(0)
        self._reasons.append(None)
        self._phases.append(False)
        self._activity.append(0.0)
        heapq.heappush(self._heap, (-0.0, var))
        self._watches[var] = []
        self._watches[-var] = []
        return var

    @property
    def num_vars(self) -> int:
        return self._num_vars

    @property
    def num_clauses(self) -> int:
        """Attached (non-unit) clauses, including learned ones."""
        return len(self._clauses)

    def add_clause(self, lits: list[int]) -> None:
        """Add a clause; duplicate literals are merged, tautologies dropped."""
        if self._trail_limits:
            # Incremental use: drop back to the root level before mutating.
            self._backtrack(0)
        highest = 0
        for lit in lits:
            if lit > highest:
                highest = lit
            elif -lit > highest:
                highest = -lit
        while self._num_vars < highest:
            self.new_var()
        # At the root level every assigned variable is a level-0 fact, so a
        # set value alone decides whether a literal is permanently true or
        # false.
        values = self._values
        seen: set[int] = set()
        reduced: list[int] = []
        for lit in lits:
            if lit == 0:
                raise ValueError("literal 0 is not allowed")
            if -lit in seen:
                return  # tautology
            if lit in seen:
                continue
            value = values[lit] if lit > 0 else -values[-lit]
            if value == _TRUE:
                return  # already satisfied forever
            if value == _FALSE:
                continue  # literal permanently false
            seen.add(lit)
            reduced.append(lit)
        if not reduced:
            self._root_conflict = True
            return
        if len(reduced) == 1:
            if not self._enqueue(reduced[0], None):
                self._root_conflict = True
            return
        self._attach_clause(reduced)

    def _attach_clause(self, lits: list[int]) -> int:
        index = len(self._clauses)
        self._clauses.append(lits)
        self._watches[lits[0]].append(index)
        self._watches[lits[1]].append(index)
        return index

    # -- assignment helpers --------------------------------------------------

    def _value(self, lit: int) -> int:
        value = self._values[abs(lit)]
        if value == _UNASSIGNED:
            return _UNASSIGNED
        return value if lit > 0 else -value

    def _decision_level(self) -> int:
        return len(self._trail_limits)

    def _enqueue(self, lit: int, reason: int | None) -> bool:
        current = self._value(lit)
        if current == _TRUE:
            return True
        if current == _FALSE:
            return False
        var = abs(lit)
        self._values[var] = _TRUE if lit > 0 else _FALSE
        self._levels[var] = self._decision_level()
        self._reasons[var] = reason
        self._phases[var] = lit > 0
        self._trail.append(lit)
        return True

    def _propagate(self) -> int | None:
        """Unit propagation; returns a conflicting clause index or ``None``.

        The hot loop of the solver: the value lookup and the enqueue of an
        implied literal are inlined (same effect as :meth:`_value` and
        :meth:`_enqueue`), and the propagation count is added to ``stats``
        once on exit."""
        values = self._values
        levels = self._levels
        reasons = self._reasons
        phases = self._phases
        watches = self._watches
        clauses = self._clauses
        trail = self._trail
        level = len(self._trail_limits)
        head = self._propagate_head
        propagated = 0
        conflict: int | None = None
        while head < len(trail):
            lit = trail[head]
            head += 1
            propagated += 1
            false_lit = -lit
            watch_list = watches[false_lit]
            new_watch_list: list[int] = []
            for position, clause_index in enumerate(watch_list):
                clause = clauses[clause_index]
                # Normalize: watched literals are clause[0] and clause[1].
                first = clause[0]
                if first == false_lit:
                    first = clause[1]
                    clause[0] = first
                    clause[1] = false_lit
                first_value = values[first] if first > 0 else -values[-first]
                if first_value == _TRUE:
                    new_watch_list.append(clause_index)
                    continue
                # Look for a replacement watch.
                replaced = False
                for k in range(2, len(clause)):
                    other = clause[k]
                    if (values[other] if other > 0 else -values[-other]) != _FALSE:
                        clause[k] = clause[1]
                        clause[1] = other
                        watches[other].append(clause_index)
                        replaced = True
                        break
                if replaced:
                    continue
                new_watch_list.append(clause_index)
                if first_value == _FALSE:
                    conflict = clause_index
                    new_watch_list.extend(watch_list[position + 1 :])
                    break
                var = first if first > 0 else -first
                values[var] = _TRUE if first > 0 else _FALSE
                levels[var] = level
                reasons[var] = clause_index
                phases[var] = first > 0
                trail.append(first)
            watches[false_lit] = new_watch_list
            if conflict is not None:
                break
        self._propagate_head = head
        self.stats.propagations += propagated
        return conflict

    # -- conflict analysis ---------------------------------------------------

    def _bump_var(self, var: int) -> None:
        self._activity[var] += self._activity_inc
        if self._activity[var] > 1e100:
            for v in range(1, self._num_vars + 1):
                self._activity[v] *= 1e-100
            self._activity_inc *= 1e-100
            # Every queue entry now records a pre-rescale activity, so none
            # would pass the freshness check: rebuild from the live values.
            self._heap = [
                (-self._activity[v], v)
                for v in range(1, self._num_vars + 1)
                if self._values[v] == _UNASSIGNED
            ]
            heapq.heapify(self._heap)
        elif self._values[var] == _UNASSIGNED:
            heapq.heappush(self._heap, (-self._activity[var], var))

    def _decay_activity(self) -> None:
        self._activity_inc /= 0.95

    def _analyze(self, conflict_index: int) -> tuple[list[int], int]:
        """First-UIP analysis: returns (learned clause, backjump level)."""
        learned: list[int] = [0]  # placeholder for the asserting literal
        seen = [False] * (self._num_vars + 1)
        counter = 0
        implied = 0  # the literal whose reason clause we are expanding
        clause = self._clauses[conflict_index]
        trail_index = len(self._trail) - 1
        current_level = self._decision_level()

        while True:
            for clause_lit in clause:
                if implied != 0 and clause_lit == implied:
                    continue  # skip the literal this clause implied
                var = abs(clause_lit)
                if seen[var] or self._levels[var] == 0:
                    continue
                seen[var] = True
                self._bump_var(var)
                if self._levels[var] == current_level:
                    counter += 1
                else:
                    learned.append(clause_lit)
            # Find the next seen literal on the trail.
            while not seen[abs(self._trail[trail_index])]:
                trail_index -= 1
            implied = self._trail[trail_index]
            var = abs(implied)
            seen[var] = False
            trail_index -= 1
            counter -= 1
            if counter == 0:
                learned[0] = -implied
                break
            reason = self._reasons[var]
            assert reason is not None, "non-decision literal must have a reason"
            clause = self._clauses[reason]

        if len(learned) == 1:
            return learned, 0
        backjump = max(self._levels[abs(l)] for l in learned[1:])
        # Put a literal from the backjump level in the second watch slot.
        for k in range(1, len(learned)):
            if self._levels[abs(learned[k])] == backjump:
                learned[1], learned[k] = learned[k], learned[1]
                break
        return learned, backjump

    def _backtrack(self, level: int) -> None:
        if self._decision_level() <= level:
            return
        limit = self._trail_limits[level]
        heap = self._heap
        activity = self._activity
        for lit in reversed(self._trail[limit:]):
            var = abs(lit)
            self._values[var] = _UNASSIGNED
            self._reasons[var] = None
            heapq.heappush(heap, (-activity[var], var))
        del self._trail[limit:]
        del self._trail_limits[level:]
        self._propagate_head = len(self._trail)

    # -- decisions -----------------------------------------------------------
    #
    # Branching uses a VSIDS max-heap over ``(-activity, var)`` entries with
    # lazy removal.  The tuple order is the total order (activity descending,
    # variable index ascending), so the heap minimum is exactly the variable
    # the old O(vars) linear scan picked — decision sequences are
    # bit-identical to the scan.  The index into the heap is implicit: an
    # entry is current iff its recorded activity equals the variable's live
    # activity (activities only grow between rescales, so a bump strands the
    # old entry, which the pop loop discards).  Every unassigned variable
    # always has a current entry: pushed on allocation, on bump, and on
    # unassignment in ``_backtrack``; rescaling rebuilds the queue outright.

    def _pick_branch_var(self) -> int | None:
        heap = self._heap
        values = self._values
        activity = self._activity
        while heap:
            negact, var = heapq.heappop(heap)
            if values[var] == _UNASSIGNED and activity[var] == -negact:
                return var
        return None

    # -- main loop -----------------------------------------------------------

    def solve(
        self,
        assumptions: list[int] | None = None,
        conflict_limit: int | None = None,
    ) -> bool:
        """Solve under optional assumptions; returns satisfiability.

        After a SAT answer, :meth:`model` returns the satisfying assignment.
        The solver may be re-used: add clauses and call ``solve`` again.
        ``conflict_limit`` bounds this call's conflicts; exceeding it raises
        :class:`BudgetExceeded` (a deterministic stand-in for a timeout).
        """
        before = self.stats.copy()
        with obs.span("sat.solve") as span:
            try:
                sat = self._search(assumptions, conflict_limit)
            finally:
                # Per-call accounting must survive every exit — UNSAT by
                # assumptions, root conflicts, and BudgetExceeded all
                # unwind through here, so the span closes and last_solve
                # is fresh even when this call aborts.
                self.last_solve = delta = self.stats.delta(before)
                metrics = obs.get_metrics()
                if metrics.enabled:
                    obs.counter("sat.solves").inc()
                    obs.counter("sat.decisions").inc(delta.decisions)
                    obs.counter("sat.propagations").inc(delta.propagations)
                    obs.counter("sat.conflicts").inc(delta.conflicts)
                    obs.counter("sat.learned_clauses").inc(delta.learned_clauses)
                    obs.counter("sat.restarts").inc(delta.restarts)
                    obs.histogram("sat.conflicts_per_solve").observe(
                        delta.conflicts
                    )
                span.set(
                    conflicts=delta.conflicts,
                    decisions=delta.decisions,
                    vars=self._num_vars,
                    clauses=len(self._clauses),
                )
            span.set(sat=sat)
            return sat

    def _search(
        self,
        assumptions: list[int] | None,
        conflict_limit: int | None,
    ) -> bool:
        self._backtrack(0)
        if self._root_conflict:
            return False
        if self._propagate() is not None:
            self._root_conflict = True
            return False
        if chaos.fire("sat.budget", vars=self._num_vars) is not None:
            # Injected overrun: the deterministic stand-in for a solver
            # timeout, raised exactly where a real conflict-limit overrun
            # would leave the solver (backtracked to the root).
            raise BudgetExceeded("chaos: injected conflict-budget overrun")

        assumptions = list(assumptions or [])
        # Restart scheduling is per-call: a reused solver restarts the Luby
        # sequence on every solve.  (It used to index the sequence with the
        # lifetime restart count, so later calls on a reused solver began
        # deep in the sequence with enormous restart intervals.)
        restarts_this_call = 0
        conflicts_until_restart = 32 * _luby(restarts_this_call + 1)
        conflicts_at_last_restart = self.stats.conflicts
        conflicts_at_start = self.stats.conflicts

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.stats.conflicts += 1
                if (
                    conflict_limit is not None
                    and self.stats.conflicts - conflicts_at_start > conflict_limit
                ):
                    self._backtrack(0)
                    raise BudgetExceeded(
                        f"exceeded {conflict_limit} conflicts"
                    )
                if self._decision_level() == 0:
                    self._root_conflict = True
                    return False
                if self._decision_level() <= len(assumptions):
                    # Conflict forced purely by assumptions.
                    self._backtrack(0)
                    return False
                learned, backjump = self._analyze(conflict)
                self._backtrack(max(backjump, len(assumptions)))
                if len(learned) == 1:
                    if not self._enqueue(learned[0], None):
                        self._root_conflict = True
                        return False
                else:
                    event = chaos.fire("sat.flip", size=len(learned))
                    if event is not None:
                        # Corrupt one non-asserting literal of the learned
                        # clause.  The solver stays sound for SAT answers
                        # (a full model still satisfies every original
                        # clause) but may prune valid assignments — the
                        # downstream-verification failure mode a learned-
                        # clause bug would cause.
                        k = 1 + event.payload % (len(learned) - 1)
                        learned[k] = -learned[k]
                    index = self._attach_clause(learned)
                    self.stats.learned_clauses += 1
                    self._enqueue(learned[0], index)
                self._decay_activity()
                if (
                    self.stats.conflicts - conflicts_at_last_restart
                    >= conflicts_until_restart
                ):
                    self.stats.restarts += 1
                    restarts_this_call += 1
                    conflicts_at_last_restart = self.stats.conflicts
                    conflicts_until_restart = 32 * _luby(restarts_this_call + 1)
                    self._backtrack(len(assumptions))
                continue

            # Apply pending assumptions as pseudo-decisions.
            level = self._decision_level()
            if level < len(assumptions):
                lit = assumptions[level]
                value = self._value(lit)
                if value == _FALSE:
                    self._backtrack(0)
                    return False
                self._trail_limits.append(len(self._trail))
                if value == _UNASSIGNED:
                    self._enqueue(lit, None)
                continue

            var = self._pick_branch_var()
            if var is None:
                return True
            self.stats.decisions += 1
            self._trail_limits.append(len(self._trail))
            lit = var if self._phases[var] else -var
            self._enqueue(lit, None)

    def model(self) -> set[int]:
        """The set of variables assigned true by the last SAT answer."""
        return {
            var
            for var in range(1, self._num_vars + 1)
            if self._values[var] == _TRUE
        }

    def model_list(self) -> list[int]:
        """The last model as a list of literals, one per variable."""
        return [
            var if self._values[var] == _TRUE else -var
            for var in range(1, self._num_vars + 1)
        ]


class SolveSession:
    """Assumption-based incremental solving over one persistent solver.

    Repair tools evaluate hundreds of candidates that differ from the base
    specification by a single edited paragraph.  A session keeps one
    :class:`SatSolver` alive across those queries: shared structure is added
    once with :meth:`add_clause`, per-candidate structure is guarded by a
    *selector* variable (:meth:`new_selector` / :meth:`add_clause_under`) and
    activated per query via ``solve(assumptions=[...])``.  Learned clauses,
    VSIDS activity, and saved phases all carry across calls, so conflicts
    derived while checking one candidate keep pruning the search for every
    later one.  A selector that will never be assumed again can be
    :meth:`retire`\\ d, which permanently satisfies its clause group and lets
    level-0 simplification drop it from future propagation.

    The classic one-shot flow (``SatSolver()`` + ``add_clause`` + ``solve``)
    is unchanged; this class is a thin coordination layer above it.
    """

    def __init__(self, solver: SatSolver | None = None) -> None:
        self.solver = solver if solver is not None else SatSolver()
        self._selectors: list[int] = []
        self._retired: set[int] = set()
        self._carried_clauses = 0
        self.solves = 0

    # -- construction --------------------------------------------------------

    def new_var(self) -> int:
        return self.solver.new_var()

    def add_clause(self, lits: list[int]) -> None:
        """Add a permanent (unguarded) clause."""
        self.solver.add_clause(lits)

    def new_selector(self) -> int:
        """Allocate a selector variable guarding a retirable clause group."""
        selector = self.solver.new_var()
        self._selectors.append(selector)
        return selector

    @property
    def num_selectors(self) -> int:
        return len(self._selectors)

    def add_clause_under(self, selector: int, lits: list[int]) -> None:
        """Add a clause that is active only when ``selector`` is assumed."""
        self.solver.add_clause([-selector] + list(lits))

    def retire(self, selector: int) -> None:
        """Permanently disable a selector's clause group.

        The unit clause ``[-selector]`` satisfies every guarded clause at
        level 0; the selector must never be assumed true afterwards.
        """
        if selector in self._retired:
            return
        self._retired.add(selector)
        self.solver.add_clause([-selector])

    # -- solving -------------------------------------------------------------

    def solve(
        self,
        assumptions: list[int] | None = None,
        conflict_limit: int | None = None,
    ) -> bool:
        """Solve with the given selectors (or arbitrary literals) assumed."""
        assumptions = list(assumptions or [])
        assumed = {abs(lit) for lit in assumptions}
        # Steer inactive selectors false via phase saving so dormant clause
        # groups do not drag the search through irrelevant structure.
        phases = self.solver._phases
        for selector in self._selectors:
            if selector not in assumed and selector not in self._retired:
                phases[selector] = False
        if self.solves and obs.get_metrics().enabled:
            # Every clause that survived from the previous query —
            # translation fragments and learned clauses alike — is work a
            # from-scratch solve would have redone.
            obs.counter("sat.session.reused_clauses").inc(self._carried_clauses)
        self.solves += 1
        try:
            return self.solver.solve(assumptions, conflict_limit)
        finally:
            self._carried_clauses = self.solver.num_clauses

    def model(self) -> set[int]:
        """The set of variables assigned true by the last SAT answer."""
        return self.solver.model()
