"""Reference answers that never come from the SQL path.

* non-recursive goals: the pure in-memory :class:`repro.prolog.Engine`
  (SLD resolution) over the same facts and view rules;
* ``works_for``: a plain breadth-first search over the ``works_dir_for``
  pairs, computed here with Python joins;
* ``ask_consistent``: brute-force repair intersection — every repair of
  the key-violating blocks is built and the goal is solved in each by the
  engine, and the certain answers are the intersection.

Answers compare as sets of ``frozenset(name -> value)`` items, because
the library promises answer *sets*, not an order.
"""

from __future__ import annotations

import itertools

from repro.prolog import Engine, KnowledgeBase
from repro.prolog.reader import parse_goal
from repro.prolog.terms import Atom, Number, Struct, Variable, conjuncts, variables_of
from repro.schema import SAME_MANAGER_SOURCE, WORKS_DIR_FOR_SOURCE

#: The non-recursive views goals may call.
VIEWS = ("works_dir_for", "same_manager")


def answer_set(answers) -> frozenset:
    """A session answer list as a comparable set."""
    return frozenset(frozenset(answer.items()) for answer in answers)


def _value(term):
    if isinstance(term, Atom):
        return term.name
    if isinstance(term, Number):
        return term.value
    raise ValueError(f"non-ground answer term {term!r}")


def _pairs(solutions) -> list:
    """``[(X, Y)]`` values of binary-view solutions, in a stable order."""
    return sorted(
        tuple(_value(solution[v]) for v in sorted(solution, key=lambda v: v.name))
        for solution in solutions
    )


class Store:
    """One state of the ``empl``/``dept`` relations, as Python tuples."""

    def __init__(self, empl, dept):
        self.empl = frozenset(empl)
        self.dept = frozenset(dept)
        self._engines: dict = {}

    def with_change(self, functor: str, values, insert: bool) -> "Store":
        """The state after inserting or deleting one base row."""
        empl, dept = set(self.empl), set(self.dept)
        target = empl if functor == "empl" else dept
        if insert:
            target.add(tuple(values))
        else:
            target.discard(tuple(values))
        return Store(empl, dept)

    # -- engine reference ------------------------------------------------------

    def _engine(self, empl, dept, views: bool) -> Engine:
        """An engine over the base facts, plus the view extensions if asked.

        Left-to-right resolution of ``works_dir_for(X, 'c')`` scans every
        employee, so view calls are answered from their extensions: the
        engine first resolves ``works_dir_for(X, Y)`` by its rule, then
        ``same_manager(X, Y)`` by its rule over those facts, and the goal
        is solved over base facts plus both extensions.
        """
        key = (empl, dept, views)
        engine = self._engines.get(key)
        if engine is not None:
            return engine
        kb = KnowledgeBase()
        for row in sorted(empl):
            kb.assert_fact("empl", *row)
        for row in sorted(dept):
            kb.assert_fact("dept", *row)
        if views:
            kb.consult(WORKS_DIR_FOR_SOURCE)
            pairs = _pairs(Engine(kb).solve_all(parse_goal("works_dir_for(X, Y)")))
            kb.retract_all(("works_dir_for", 2))
            for low, high in pairs:
                kb.assert_fact("works_dir_for", low, high)
            kb.consult(SAME_MANAGER_SOURCE)
            pairs = _pairs(Engine(kb).solve_all(parse_goal("same_manager(X, Y)")))
            kb.retract_all(("same_manager", 2))
            for low, high in pairs:
                kb.assert_fact("same_manager", low, high)
        engine = Engine(kb)
        self._engines[key] = engine
        return engine

    def solve(self, goal, empl=None, dept=None) -> frozenset:
        """The engine's answers to a non-recursive goal."""
        if isinstance(goal, str):
            goal = parse_goal(goal)
        views = any(
            isinstance(part, Struct) and part.functor in VIEWS
            for part in conjuncts(goal)
        )
        engine = self._engine(
            self.empl if empl is None else empl,
            self.dept if dept is None else dept,
            views,
        )
        names = [v for v in variables_of(goal) if not v.is_anonymous]
        found = set()
        for solution in engine.solve_all(goal):
            found.add(
                frozenset((v.name, _value(solution[v])) for v in names)
            )
        return frozenset(found)

    # -- recursive reference ---------------------------------------------------

    def works_dir_for_pairs(self) -> set:
        managers = {dno: mgr for dno, _fct, mgr in self.dept}
        names_by_eno: dict = {}
        for eno, nam, _sal, _dno in self.empl:
            names_by_eno.setdefault(eno, []).append(nam)
        pairs = set()
        for _eno, nam, _sal, dno in self.empl:
            mgr = managers.get(dno)
            for boss in names_by_eno.get(mgr, ()):
                pairs.add((nam, boss))
        return pairs

    def works_for(self, goal) -> frozenset:
        """BFS over works_dir_for for ``works_for(a, Y)`` / ``works_for(X, b)``."""
        if isinstance(goal, str):
            goal = parse_goal(goal)
        low, high = goal.args
        up: dict = {}
        down: dict = {}
        for lo, hi in self.works_dir_for_pairs():
            up.setdefault(lo, set()).add(hi)
            down.setdefault(hi, set()).add(lo)
        if isinstance(low, Atom):
            start, edges, free = low.name, up, high
        else:
            start, edges, free = high.name, down, low
        seen: set = set()
        frontier = [start]
        while frontier:
            successor = []
            for node in frontier:
                for nxt in edges.get(node, ()):
                    if nxt not in seen:
                        seen.add(nxt)
                        successor.append(nxt)
            frontier = successor
        assert isinstance(free, Variable)
        return frozenset(frozenset({(free.name, node)}) for node in seen)

    # -- consistent answers ----------------------------------------------------

    def certain(self, goal) -> frozenset:
        """Intersection of the engine's answers over every repair.

        A repair keeps one row of each primary-key block: ``eno`` for
        ``empl`` and ``dno`` for ``dept`` (the minimal keys the library
        derives from the declared dependencies).
        """
        choices = []
        for rows, key in ((self.empl, 0), (self.dept, 0)):
            blocks: dict = {}
            for row in rows:
                blocks.setdefault(row[key], []).append(row)
            choices.append([sorted(block) for block in blocks.values()])
        empl_blocks, dept_blocks = choices
        certain = None
        for empl_pick in itertools.product(*empl_blocks):
            for dept_pick in itertools.product(*dept_blocks):
                found = self.solve(goal, frozenset(empl_pick), frozenset(dept_pick))
                certain = found if certain is None else certain & found
        return certain if certain is not None else frozenset()


def is_recursive(goal) -> bool:
    if isinstance(goal, str):
        goal = parse_goal(goal)
    parts = conjuncts(goal)
    return any(
        isinstance(part, Struct) and part.functor == "works_for" for part in parts
    )


def expected(store: Store, kind: str, goal) -> frozenset:
    """The reference answer set for one goal of an operation kind."""
    if kind == "ask_consistent":
        return store.certain(goal)
    if is_recursive(goal):
        return store.works_for(goal)
    return store.solve(goal)
