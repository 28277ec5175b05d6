"""The coupled PROLOG–DBMS session (the whole of paper Figure 1).

:class:`PrologDbSession` is the public front door of this library.  It
owns the internal Prolog engine and knowledge base, the external SQLite
database, the metaevaluator, the local optimizer, and the global
optimizer, and it wires up the paper's ``metaevaluate/4`` amalgamated
predicate so expert-system programs can trigger database fetches from
inside Prolog clauses (the ``partner`` rule of Example 4-1).

Typical use::

    session = PrologDbSession()
    session.load_org(generate_org(depth=3, branching=2, staff_per_dept=4))
    session.consult(WORKS_DIR_FOR_SOURCE)
    answers = session.ask("works_dir_for(X, 'emp00001')")

``ask`` classifies the goal (internal / external / recursive), runs the
appropriate pipeline, and returns answer bindings as plain Python dicts.
``explain`` returns the full translation trace (DBCL, simplified DBCL,
SQL) without executing, which the examples and EXPERIMENTS.md use.

The ask hot path is *compile-once*: the first time a goal shape is seen
(constants abstracted to parameters), the session classifies it,
metaevaluates it, runs Algorithm 2, translates, and prints SQL — then
caches the whole artifact in a :class:`~repro.coupling.global_opt.PlanCache`.
Subsequent asks that differ only in constants bind parameters into the
prepared statement and execute.  Shapes whose simplification consulted a
concrete constant value (a marker reached a comparison, emptied the
plan, or vanished from the tableau) are *constant-sensitive*: they cache
exact-constant variants instead, so warm answers are always identical to
a fresh compilation.

Every entry point shares one copy of each stage.  ``_run_cold`` is the
cold compile (metaevaluate → Algorithm 2 → cost order → result cache →
segment merge → translate → prepare → execute), used by ``ask`` and the
``metaevaluate/4`` fetch.  ``_compile_plan`` turns a cold run into a
cached plan, and ``_parameterize`` — the marker analysis — also builds
``ask_consistent``'s rewriting plans.  ``_execute_plan`` is the warm
executor (bind → fetch → demultiplex) for ``ask``'s read-locked and
write-locked paths and for ``ask_consistent``; the fetch reuses its bind
and row-fetch steps.  ``_lookup_plan`` is the one plan-cache lookup.

Serving (concurrency + batching)
--------------------------------

The session is thread-safe.  Mutations — ``assert_fact``,
``retract_fact``, ``consult``, ``load_org``, and any ask that must
compile, merge segments, refresh a materialized view, run the engine, or
iterate a recursive closure — serialize on the knowledge base's write
lock.  Warm *pure-external* asks (a cached fully-compiled plan, no
pending internal segments) run concurrently under the read lock, each
thread executing on its own pooled read connection of the backend.

``ask_many`` is the set-oriented batch entry point: goals are grouped by
shape, and each warm fully-parameterized shape executes **once** per
batch — the rotating constants fold into an ``IN (VALUES …)`` variant of
the prepared statement, and result rows carry the constants they matched
so they demultiplex back into per-goal answers.  Cold and
constant-sensitive shapes fall back to the serial path (paper §7's
multiple-query optimization, applied to the prepared-plan hot path).
"""

from __future__ import annotations

import functools
import hashlib
import threading
import time
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union

from ..concurrency import LockedCounters

from ..dbcl.grammar import format_dbcl
from ..dbcl.predicate import DbclPredicate
from ..dbms.internal_db import assert_answers, term_to_value
from ..dbms.merge import SegmentMerger
from ..dbms.sqlite_backend import ExternalDatabase
from ..dbms.workload import OrgHierarchy, load_org
from ..cqa import (
    CqaStats,
    RelationViolations,
    ViolationDetector,
    certain_answers as cqa_certain_answers,
    peel_order,
    split_blocks,
)
from ..errors import (
    CouplingError,
    CqaError,
    DeadlineExceeded,
    ExecutionError,
    ReproError,
    TransientBackendError,
)
from ..metaevaluate.recursion import (
    is_recursive_goal,
    recursive_indicators,
    view_call_graph,
)
from ..metaevaluate.translator import Metaevaluator
from ..observe import Tracer
from ..optimize.pipeline import SimplificationResult, SimplifyOptions, simplify
from ..prolog.engine import Engine
from ..prolog.knowledge_base import KnowledgeBase
from ..prolog.reader import parse_goal
from ..prolog.terms import (
    Atom,
    Clause,
    Number,
    Struct,
    Term,
    Variable,
    conjoin,
    conjuncts,
    goal_indicator,
    list_items,
    variables_of,
)
from ..prolog.unify import unify
from ..schema.catalog import DatabaseSchema
from ..schema.constraints import ConstraintSet
from ..schema.empdep import empdep_constraints, empdep_schema
from ..sql.ast import SqlQuery
from ..sql.printer import print_sql
from ..sql.translate import certainty_suffix, translate
from .global_opt import (
    UNCACHEABLE,
    CachePolicy,
    CompiledPlan,
    GoalShape,
    PlanCache,
    ResultCache,
    goal_shape,
    goal_with_markers,
    marker_columns,
    marker_for,
    marker_index,
    markers_in_comparisons,
    markers_in_rows,
    plan_goal,
)
from .recursion_exec import RecursionRun, TransitiveClosure

Value = Union[int, float, str, None]

#: Sentinel: the lock-free/read-locked fast path could not answer the
#: goal; the caller must re-run the full pipeline under the write lock.
_NEEDS_WRITE = object()

#: The paper's ``no_optim`` flag: Algorithm 2 passes predicates through.
_NO_OPTIM = SimplifyOptions.none()


def _hit_rate(hits: int, misses: int) -> Optional[float]:
    """Hits as a fraction of lookups, or None before the first lookup."""
    total = hits + misses
    if not total:
        return None
    return round(hits / total, 4)


@dataclass
class CompilePhaseStats(LockedCounters):
    """Wall-clock breakdown of cold compilations, per pipeline phase.

    A cold ask pays classification (goal split over the view call graph),
    metaevaluation (Prolog → DBCL), optimization (Algorithm 2 plus the
    cost-based row order), translation (DBCL → SQL tree), and printing
    (tree → prepared text).  ``session.stats()["compile_phases"]``
    exposes the accumulated seconds per phase so a cost-model regression
    (say, the greedy join order suddenly dominating compile time) is
    observable instead of vanishing into one opaque cold-ask number.
    """

    cold_compilations: int = 0
    classify_seconds: float = 0.0
    metaevaluate_seconds: float = 0.0
    optimize_seconds: float = 0.0
    translate_seconds: float = 0.0
    print_seconds: float = 0.0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    _snapshot_fields = (
        "cold_compilations",
        "classify_seconds",
        "metaevaluate_seconds",
        "optimize_seconds",
        "translate_seconds",
        "print_seconds",
    )


@dataclass
class RecursionPlanStats(LockedCounters):
    """Observability for the cost-based recursion planner's decisions.

    Every planned recursive ask records which strategy the planner chose
    (per-strategy counters) plus the *reason string* of the most recent
    decision, so interval-vs-CTE routing is auditable in production via
    ``session.stats()["recursion_plans"]`` instead of requiring a
    debugger on :attr:`TransitiveClosure.last_plan`.
    """

    planned_asks: int = 0
    interval: int = 0
    cte: int = 0
    topdown: int = 0
    bottomup: int = 0
    other: int = 0
    last_strategy: str = ""
    last_reason: str = ""
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    _snapshot_fields = (
        "planned_asks",
        "interval",
        "cte",
        "topdown",
        "bottomup",
        "other",
    )

    def note(self, plan) -> None:
        """Record one :class:`~repro.coupling.recursion_exec.RecursionPlan`."""
        with self._lock:
            self.planned_asks += 1
            name = plan.strategy
            if name in ("interval", "cte", "topdown", "bottomup"):
                setattr(self, name, getattr(self, name) + 1)
            else:
                self.other += 1
            self.last_strategy = plan.strategy
            self.last_reason = plan.reason

    def snapshot(self) -> dict:
        with self._lock:
            data = {
                name: getattr(self, name) for name in self._snapshot_fields
            }
            data["last_strategy"] = self.last_strategy
            data["last_reason"] = self.last_reason
            return data


@dataclass
class TranslationTrace:
    """Everything the pipeline produced for one goal (``explain``)."""

    goal: Term
    dbcl: DbclPredicate
    simplification: SimplificationResult
    sql: SqlQuery

    @property
    def dbcl_text(self) -> str:
        return format_dbcl(self.dbcl)

    @property
    def optimized_dbcl_text(self) -> str:
        return format_dbcl(self.simplification.predicate)

    @property
    def sql_text(self) -> str:
        return print_sql(self.sql)


class PrologDbSession:
    """A tightly-coupled expert-system / relational-database session."""

    def __init__(
        self,
        schema: Optional[DatabaseSchema] = None,
        constraints: Optional[ConstraintSet] = None,
        database: Optional[ExternalDatabase] = None,
        optimize: bool = True,
        cache_policy: Optional[CachePolicy] = None,
        plan_cache: bool = True,
        storage_policy=None,
        tracing: bool = True,
        trace_ring: int = 1024,
        slow_query_seconds: float = 0.25,
        tracer=None,
        wall_clock=None,
    ):
        self.schema = schema if schema is not None else empdep_schema()
        self.constraints = (
            constraints
            if constraints is not None
            else empdep_constraints(self.schema)
        )
        self.database = (
            database
            if database is not None
            else ExternalDatabase(self.schema, constraints=self.constraints)
        )
        self.optimize = optimize
        #: Algorithm 2's stage toggles for every compile this session runs
        #: (a ``no_optim`` fetch alone overrides them).
        self._simplify_options = SimplifyOptions() if optimize else _NO_OPTIM
        self.kb = KnowledgeBase()
        self.engine = Engine(self.kb)
        self.metaevaluator = Metaevaluator(self.schema, self.kb)
        self.merger = SegmentMerger(self.kb, self.database)
        self.cache = ResultCache(cache_policy)
        self.plans = PlanCache()
        self.compile_phases = CompilePhaseStats()
        self.recursion_plans = RecursionPlanStats()
        #: Consistent query answering (ROADMAP E19): key-violation
        #: detection with per-generation probe caching, plus the
        #: counters ``stats()["cqa"]`` reports.
        self.cqa_stats = CqaStats()
        self.cqa_detector = ViolationDetector(
            self.database, self.constraints, stats=self.cqa_stats
        )
        #: Certain-answer sets from repair enumeration, keyed by
        #: (predicate canonical key, involved data generations) — any
        #: mutation of an involved relation changes the key.
        self._cqa_memo: dict[tuple, frozenset] = {}
        self._cqa_memo_lock = threading.Lock()
        #: Per-ask tracing (ROADMAP E20).  ``tracing=False`` is the kill
        #: switch: ``Tracer.begin`` then returns ``None`` before any
        #: allocation and the backend execute observer is never installed.
        #: ``wall_clock`` injects the span timestamp provider (tests and
        #: seeded differentials pin it to a fake clock).
        self.tracer = (
            tracer
            if tracer is not None
            else Tracer(
                enabled=tracing,
                ring_size=trace_ring,
                slow_query_seconds=slow_query_seconds,
                wall_clock=wall_clock,
            )
        )
        self.tracer.attach(self.database)
        self._plan_caching = plan_cache
        self._closures: dict[tuple[str, int], TransitiveClosure] = {}
        self._closures_lock = threading.Lock()
        self._register_metaevaluate_builtin()
        # Any base-relation mutation (including engine-level assertz or
        # retract from inside a Prolog program) invalidates exactly the
        # cached results that could observe it.
        self.kb.add_listener(self._on_base_relation_change)
        # Imported here, not at module level: repro.materialize reaches
        # back into repro.coupling for the closure machinery.
        from ..materialize.manager import MaterializeManager

        #: The incremental view-maintenance subsystem (maintain-on-write).
        self.materialize = MaterializeManager(
            kb=self.kb,
            schema=self.schema,
            database=self.database,
            constraints=self.constraints,
            metaevaluator=self.metaevaluator,
            merger=self.merger,
            plans=self.plans if plan_cache else None,
            result_cache=self.cache,
            policy=storage_policy,
            optimize=optimize,
        )

    def _on_base_relation_change(self, kind, indicator, clauses) -> None:
        if self._is_base_relation(*indicator):
            self.cache.invalidate_relation(indicator[0])

    # -- program loading ---------------------------------------------------------

    def consult(self, source: str) -> None:
        """Load Prolog clauses (views, rules, facts) into the session."""
        # The write lock makes load + cache invalidation atomic: no
        # concurrent reader observes new clauses with stale cached plans
        # or result rows.
        with self.kb.lock.write():
            clauses = self.kb.consult(source)
            with self._closures_lock:
                self._closures.clear()
            # Compiled plans key on KnowledgeBase.generation, which consult
            # advanced; the next sync drops them.  Clear eagerly anyway so the
            # cache never outlives a program change even in direct use.
            self.plans.invalidate()
            # Cached results track dependencies transitively (view names as
            # well as base relations), so invalidating each consulted head
            # also drops results for views defined *over* the changed ones.
            for name in {clause.indicator[0] for clause in clauses}:
                self.cache.invalidate_relation(name)
            self.materialize.on_consult([clause.indicator for clause in clauses])

    def load_org(self, org: OrgHierarchy) -> None:
        """Load a generated organisation into the external database."""
        # One generation bump for the whole load, however the loader (or
        # a change listener) touches the knowledge base.
        with self.kb.lock.write():
            with self.kb.bulk_update():
                relations = load_org(self.database, org)
            self.cache.invalidate(relations)
            self.materialize.on_load(relations)

    def warm(self, goals: Iterable[Union[str, Term]]) -> int:
        """Prime the plan cache: compile-and-ask each goal, answers discarded.

        The scale-out serving tier (ROADMAP E18) calls this on every
        worker after a snapshot refresh, so the first real request after
        a generation change pays a warm plan-cache hit instead of a cold
        compile.  A goal that fails to compile or execute is skipped —
        warmup must never take a worker down.  Returns how many goals
        warmed successfully.
        """
        warmed = 0
        for goal in goals:
            try:
                self.ask(goal)
            except ReproError:
                continue
            warmed += 1
        return warmed

    def program_snapshot(self) -> tuple[int, str]:
        """The in-memory program as ``(generation, source text)``.

        The payload a scale-out owner ships to read-only workers: every
        rule and non-base fact, rendered back to Prolog source, stamped
        with the knowledge base generation it serializes.  Base-relation
        facts are deliberately excluded — the external store already
        holds them (the serving tier merges internal segments before
        publishing), and shipping them would turn read-only workers
        into writers when their merge procedure fired.
        """
        from ..prolog.writer import program_to_string

        with self.kb.lock.read():
            clauses = []
            for indicator in list(self.kb.indicators()):
                if not self._is_base_relation(*indicator):
                    clauses.extend(self.kb.all_clauses(indicator))
            return self.kb.generation, program_to_string(clauses)

    @staticmethod
    def _fact_terms(values) -> tuple[Term, ...]:
        args: list[Term] = []
        for value in values:
            if isinstance(value, bool):
                args.append(Atom("true" if value else "false"))
            elif isinstance(value, (int, float)):
                args.append(Number(value))
            elif isinstance(value, str):
                args.append(Atom(value))
            else:
                raise TypeError(f"unsupported fact argument: {value!r}")
        return tuple(args)

    def assert_fact(self, functor: str, *values) -> None:
        """Add an internal fact (expert-system knowledge).

        Facts asserted under a *base relation* name form an internal
        database segment; the merge procedure (paper section 2) pushes
        them to the external DBMS before the next query over that
        relation.  The change listeners registered on the knowledge base
        invalidate affected cached results and — when materialized views
        depend on the relation — apply maintenance deltas instead of
        recomputing.
        """
        self.kb.assert_fact(functor, *values)

    def retract_fact(self, functor: str, *values) -> bool:
        """Remove a fact from the session's visible union of segments.

        The internal copy is retracted if present; for base relations the
        external tuple is removed as well, with materialized views
        maintained through delete deltas (DRed delete/re-derive for
        recursive views).  Returns True when something was removed.
        """
        args = self._fact_terms(values)
        clause = Clause(Struct(functor, args))
        # One write bracket for the internal retract *and* the external
        # delete: concurrent readers see the tuple everywhere or nowhere.
        with self.kb.lock.write():
            found = self.kb.retract(clause)
            if not self._is_base_relation(functor, len(args)):
                return found
            row = tuple(term_to_value(argument) for argument in args)
            if self.materialize.is_maintained(functor):
                if not found:
                    found = bool(self.materialize.external_delete(functor, row))
            else:
                removed = self.database.delete_row(functor, row)
                found = found or removed > 0
            self.cache.invalidate_relation(functor)
            return found

    def _merge_internal_segments(self, predicate: DbclPredicate) -> None:
        """Push internal facts for the predicate's relations to the DBMS.

        The paper's alternative storage strategy ("storing query results
        in the external database system, to keep a clean separation"):
        any base relation with internally asserted tuples is materialised
        externally so the generated SQL sees the union of both segments.
        """
        for tag in self._pending_segments(predicate):
            self.merger.materialise_internal(tag)

    def _pending_segments(self, predicate: DbclPredicate) -> list[str]:
        """The predicate's base relations with internally asserted tuples."""
        return [
            tag
            for tag in {row.tag for row in predicate.rows}
            if self.schema.has_relation(tag)
            and self.kb.fact_count((tag, self.schema.relation(tag).arity))
        ]

    # -- the paper's amalgamated metaevaluate/4 ------------------------------------

    def _register_metaevaluate_builtin(self) -> None:
        session = self

        def builtin_metaevaluate(engine, goal, subst, depth):
            """metaevaluate(Program, [Goal], Options, DBCL) — paper §4."""
            assert isinstance(goal, Struct)
            _program, goal_list, options, dbcl_out = goal.args
            goals = list_items(subst.apply(goal_list))
            if len(goals) != 1:
                raise CouplingError("metaevaluate/4 expects a one-goal list")
            inner = goals[0]
            use_optim = subst.apply(options) != Atom("no_optim")
            predicate = session._fetch_view(inner, optimize=use_optim)
            from ..prolog.reader import parse_term

            if predicate is None:
                # All branches were fact branches: the answers are already
                # in the internal database from an earlier metaevaluation.
                dbcl_term: Term = Atom("already_evaluated")
            else:
                dbcl_term = parse_term(format_dbcl(predicate).rstrip(". \n"))
            extended = unify(dbcl_out, dbcl_term, subst)
            if extended is not None:
                yield extended

        self.engine.register_builtin("metaevaluate", 4, builtin_metaevaluate)

    def _phase(self, phase: str, started: float) -> float:
        """Accumulate one compile phase's wall clock; returns a new mark.

        Feeds both the session-wide :class:`CompilePhaseStats` and — when
        an ask span is open on this thread — that span's per-ask phase
        breakdown, so cold compiles are explainable from one trace record.
        """
        now = time.perf_counter()
        elapsed = now - started
        self.compile_phases.incr(f"{phase}_seconds", elapsed)
        span = self.tracer.current_span()
        if span is not None:
            span.phases[phase] = span.phases.get(phase, 0.0) + elapsed
        return now

    def _cost_ordered(
        self, predicate: DbclPredicate, options: SimplifyOptions
    ) -> DbclPredicate:
        """Rows reordered by the statistics-driven greedy join order.

        Applied between Algorithm 2 and SQL translation: the simplified
        tableau's rows are permuted so the most selective relation leads
        and each join extends the cheapest prefix (System R estimates
        over the backend's relation statistics).  Answer-preserving by
        construction — see :mod:`repro.optimize.costs` — and skipped
        when optimization is off or the backend has no statistics
        service, so ``explain`` traces and ``no_optim`` runs keep the
        paper's literal row order.
        """
        if options == _NO_OPTIM or len(predicate.rows) <= 1:
            return predicate
        stats_of = getattr(self.database, "relation_statistics", None)
        if stats_of is None:
            return predicate
        from ..optimize.costs import order_rows

        try:
            return order_rows(predicate, stats_of)
        except Exception:  # noqa: BLE001 - cost ordering is advisory
            return predicate

    def _to_dbcl(
        self, kind: str, goal: Term, targets: Sequence[Variable]
    ) -> Optional[DbclPredicate]:
        """Metaevaluate ``goal`` for a plan of ``kind``.

        A ``metaevaluate/4`` fetch compiles only the view's rule branch:
        a view that was metaevaluated before carries its previous answers
        as asserted facts, and unfolding yields them as extra *fact
        branches* with no database calls.  ``None`` means every branch
        was such a fact (the answers are already internal).
        """
        if kind != "fetch":
            return self.metaevaluator.metaevaluate(goal, targets=list(targets))
        name = self.metaevaluator._default_name(goal)
        branches = [
            branch
            for branch in self.metaevaluator.collect_branches(goal)
            if branch.dbcalls
        ]
        if not branches:
            return None
        if len(branches) > 1:
            raise CouplingError(
                f"metaevaluate/4 on disjunctive view {name}; use "
                "ask_disjunctive instead"
            )
        return self.metaevaluator.branch_to_dbcl(
            branches[0], name, list(targets)
        )

    def _run_cold(self, goal: Term, mark: float, artifacts: dict) -> list[tuple]:
        """The cold compile: metaevaluate → Algorithm 2 → cost order →
        result cache → segment merge → translate → prepare → execute.

        ``goal`` is the conjunction compiled to SQL (an ask's external
        block, a fetch's view call) and ``mark`` the start of the cold
        run.  ``artifacts`` describes the compile — the plan ``kind``,
        the goal positions of the conjuncts compiled to SQL
        (``external``) and left to Prolog (``internal``), the
        ``fetch_targets`` and the simplify ``options`` — and receives its
        outcome for :meth:`_compile_plan`:
        ``original`` (None when :meth:`_to_dbcl` found nothing to
        compile), ``final`` (None when simplification proved the goal
        empty) and, when SQL was printed, ``sql_text``.
        """
        artifacts["original"] = artifacts["final"] = None
        predicate = self._to_dbcl(
            artifacts["kind"], goal, artifacts["fetch_targets"]
        )
        if predicate is None:
            return []
        mark = self._phase("metaevaluate", mark)
        options = artifacts["options"]
        result = simplify(predicate, self.constraints, options)
        artifacts["original"] = result.original
        if result.is_empty:
            self._phase("optimize", mark)
            return []
        final = artifacts["final"] = self._cost_ordered(result.predicate, options)
        mark = self._phase("optimize", mark)
        rows = self.cache.lookup(final)
        if rows is None:
            self._merge_internal_segments(final)
            mark = time.perf_counter()
            sql = translate(final, distinct=True)
            mark = self._phase("translate", mark)
            if sql.is_empty:
                # A false ground comparison survived (simplification off):
                # provably empty, never sent to the DBMS.
                rows = []
            else:
                sql_text = artifacts["sql_text"] = self.database.prepare(sql)
                self._phase("print", mark)
                rows = self.database.execute_prepared(sql_text)
            self.cache.store(final, rows, self._result_dependencies(final, goal))
        return rows

    def _fetch_view(
        self, goal: Term, optimize: bool = True
    ) -> Optional[DbclPredicate]:
        """Metaevaluate a single-view goal, execute it, assert the answers.

        Returns the compiled DBCL predicate — the unsimplified one when
        the fetch is provably empty — or ``None`` when every answer is
        already in the internal database.  Repeated shapes take the
        prepared path: the rule branch's compilation is cached per goal
        shape (see the module docstring) and re-executed with bound
        parameters.
        """
        use_optim = bool(optimize and self.optimize)
        targets = [v for v in variables_of(goal) if not v.is_anonymous]
        shape, plan = self._lookup_plan(goal, ("fetch", use_optim))
        if plan is not None:
            bound = self._bind(plan, shape.constants)
            if bound is None:
                # Match the cold path's contract: a provably-empty fetch
                # reports the unsimplified predicate it proved empty.
                if plan.is_empty:
                    return plan.template
                return self._to_dbcl("fetch", goal, targets)
            rows = self._rows_for_plan(plan, shape.constants, bound, goal)
            assert_answers(self.kb, goal, bound, targets, rows)
            # New answer facts (or a segment merge above) advanced the KB
            # generation; keep this shape's plan alive across the bump, as
            # the cold path does by recompiling after its own assert.
            self.plans.retain(shape, self.kb)
            return bound

        mark = time.perf_counter()
        self.compile_phases.incr("cold_compilations")
        artifacts = {
            "kind": "fetch",
            "external": range(len(conjuncts(goal))),
            "internal": (),
            "fetch_targets": targets,
            "options": self._simplify_options if use_optim else _NO_OPTIM,
        }
        rows = self._run_cold(goal, mark, artifacts)
        final = artifacts["final"]
        if artifacts["original"] is None:
            return None
        if final is not None:
            assert_answers(self.kb, goal, final, targets, rows)
        if shape is not None:
            # Compile after asserting: the new answer facts advanced the KB
            # generation, and a plan stored before them would be dropped on
            # the next sync.  The plan stays valid — answer facts only add
            # fact branches, which the fetch path filters out by design.
            self._compile_plan(shape, goal, artifacts)
        return final if final is not None else artifacts["original"]

    # -- query answering --------------------------------------------------------------

    def ask(
        self,
        goal: Union[str, Term],
        max_solutions: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> list[dict[str, Value]]:
        """Answer a goal, routing each part to the right evaluator.

        Thread-safe: warm pure-external asks (and fresh maintained-view
        hits) run concurrently under the knowledge base's read lock;
        everything that might mutate — compilation, segment merges, view
        refreshes, engine resolution, recursive closures — serializes on
        the write lock.

        ``deadline`` caps the ask's wall-clock budget in seconds: the
        backend's progress handler interrupts any statement still running
        at expiry and :class:`~repro.errors.DeadlineExceeded` surfaces
        with partial-work counters attached.  Transient backend failures
        that outlast the backend's own retry ladder — a long lock burst,
        a poisoned pooled connection — are retried here, bounded by the
        fault policy's ``max_ask_retries``; only a budget this generous
        failing turns into an error the caller sees.
        """
        return self._traced("ask", self._ask_once, goal, max_solutions, deadline)

    def _traced(
        self,
        kind: str,
        once,
        goal: Union[str, Term],
        max_solutions: Optional[int],
        deadline: Optional[float],
    ) -> list[dict[str, Value]]:
        """One span and one deadline scope around a retried ask.

        Shared by :meth:`ask` and :meth:`ask_consistent`, which differ
        only in the single attempt (``once``) they retry.
        """
        if isinstance(goal, str):
            goal = parse_goal(goal)
        span = self.tracer.begin(goal, kind)
        if span is None:  # tracing disabled, or attributed to an outer span
            with self.database.deadline(deadline):
                return self._resilient(once, goal, max_solutions, None)
        try:
            with self.database.deadline(deadline):
                answers = self._resilient(once, goal, max_solutions, span)
                if deadline is not None:
                    scope = self.database.current_deadline()
                    if scope is not None:
                        span.deadline_remaining = round(scope.remaining(), 6)
            span.answers = len(answers)
            return answers
        except Exception as error:
            span.error = f"{type(error).__name__}: {error}"
            raise
        finally:
            self.tracer.commit(span)

    def _resilient(
        self, once, goal: Term, max_solutions: Optional[int], span
    ) -> list[dict[str, Value]]:
        """Retry transient failures around one whole ask attempt."""
        policy = self.database.policy
        attempts = 0
        while True:
            try:
                return once(goal, max_solutions, span)
            except TransientBackendError:
                attempts += 1
                if not policy.enabled or attempts > policy.max_ask_retries:
                    raise
                self.database.resilience.incr("ask_retries")
                pause = policy.ask_retry_pause * min(attempts, 8)
                scope = self.database.current_deadline()
                if scope is not None:
                    if scope.expired:
                        raise  # the next attempt could only time out
                    pause = scope.clamp(pause)
                time.sleep(pause)

    def _ask_once(
        self, goal: Term, max_solutions: Optional[int], span=None
    ) -> list[dict[str, Value]]:
        fast = self._ask_read_path(goal, max_solutions, span)
        if fast is not _NEEDS_WRITE:
            return fast
        with self.kb.lock.write():
            return self._ask_write_path(goal, max_solutions, span)

    def _ask_read_path(self, goal: Term, max_solutions: Optional[int],
                       span=None):
        """Answer under the read lock, or :data:`_NEEDS_WRITE`.

        Only evaluations that provably mutate nothing run here: a fresh
        maintained view, or a cached pure-external plan whose relations
        have no pending internal segments.  Plan-cache *stats* for misses
        are left to the write path (which repeats the lookup), so counts
        match the single-threaded accounting exactly.  The open span (if
        any) arrives as a parameter — the warm path is where the E20
        overhead budget is spent, and a thread-local read per ask is
        measurable there.
        """
        with self.kb.lock.read():
            status, maintained = self.materialize.try_answer(goal, max_solutions)
            if status == "hit":
                if span is not None:
                    span.plan_cache = "maintained"
                    span.plan_kind = "maintained"
                return maintained
            if status == "stale":
                return _NEEDS_WRITE
            if not self._plan_caching:
                return _NEEDS_WRITE
            mark = time.perf_counter() if span is not None else 0.0
            self.plans.sync(self.kb)
            shape = goal_shape(goal)
            if span is not None:
                # Inlined span.mark(): method-call frames on this branch
                # are paid on every warm ask (E20 overhead budget).
                now = time.perf_counter()
                span.phases["shape"] = now - mark
                mark = now
            if shape is None:
                return _NEEDS_WRITE
            entry = self.plans.entry_for(shape)
            if entry is None or entry.uncacheable:
                return _NEEDS_WRITE
            plan = entry.variants.get(entry.variant_key(shape.constants))
            if (
                plan is None
                or plan.kind != "external"
                or plan.internal_indices
            ):
                return _NEEDS_WRITE
            self.plans.stats.incr("hits")
            if span is not None:
                span.shape_key = shape.key
                span.plan_cache = "hit"
                span.plan_kind = plan.kind
                now = time.perf_counter()
                span.phases["plan_lookup"] = now - mark
            try:
                return self._execute_plan(
                    plan, shape, goal, max_solutions, span, read_only=True
                )
            except TransientBackendError:
                raise  # the resilient ask driver retries whole attempts
            except ExecutionError:
                # Permanent warm-plan failure.  Recovery (evict the plan,
                # recompile cold) mutates the plan cache and runs the
                # cold pipeline: restart on the write side.
                return _NEEDS_WRITE

    def _ask_write_path(
        self, goal: Term, max_solutions: Optional[int], span=None
    ) -> list[dict[str, Value]]:
        """The full pipeline (mutations allowed; caller holds write lock)."""
        if span is None:
            span = self.tracer.current_span()
        maintained = self.materialize.answer(goal, max_solutions)
        if maintained is not None:
            if span is not None:
                span.plan_cache = "maintained"
                span.plan_kind = "maintained"
            return maintained
        shape, plan = self._lookup_plan(goal, span=span)
        if plan is not None:
            try:
                return self._execute_plan(plan, shape, goal, max_solutions, span)
            except TransientBackendError:
                raise  # retried whole by the resilient driver
            except ExecutionError:
                # The warm plan failed *permanently* mid-execution (a
                # prepared statement the backend no longer accepts).  Drop
                # the shape's plans and fall through to exactly one cold
                # recompilation.
                self._invalidate_failed_plan(shape)

        answers, artifacts = self._ask_cold(goal, max_solutions)
        if span is not None:
            span.plan_cache = "miss"
            span.plan_kind = artifacts["kind"]
        if shape is not None:
            self._compile_plan(shape, goal, artifacts)
        return answers

    def _lookup_plan(
        self, goal: Term, prefix: tuple = (), span=None
    ) -> tuple[Optional[GoalShape], Optional[CompiledPlan]]:
        """``(shape, plan)`` for the goal's cached plan; ``plan`` None on a miss.

        ``prefix`` namespaces the shape key per plan family (plain asks,
        fetches, consistent mode), so one goal's plans never collide.
        ``shape`` is None when the goal must take the cold path without
        compiling: plan caching off, an unshapeable goal, or a shape
        marked uncacheable.  ``span`` (if any) records the shape and
        lookup phases and the hit.
        """
        if not self._plan_caching:
            return None, None
        mark = time.perf_counter() if span is not None else 0.0
        self.plans.sync(self.kb)
        shape = goal_shape(goal)
        if span is not None:
            mark = span.mark("shape", mark)
        if shape is None:
            return None, None
        if prefix:
            shape = GoalShape(key=prefix + shape.key, constants=shape.constants)
        if span is not None:
            span.shape_key = shape.key
        plan = self.plans.lookup(shape)
        if span is not None:
            span.mark("plan_lookup", mark)
        if plan is UNCACHEABLE:
            if span is not None:
                span.plan_cache = "uncacheable"
            return None, None  # cold path, no recompilation attempt
        if plan is not None and span is not None:
            span.plan_cache = "hit"
            span.plan_kind = plan.kind
        return shape, plan

    def _invalidate_failed_plan(self, shape: GoalShape) -> None:
        """Drop a warm plan that failed permanently at execution time.

        The prepared statement no longer matches backend reality (a
        dropped table, a schema drift the generation counter cannot see).
        Evicting the shape sends this ask down the cold pipeline, which
        recompiles against the current catalog and re-stores — one cold
        compile heals the shape for every later ask.  Result rows cached
        through the dead plan go too: they were fetched from the state
        the backend just disowned.
        """
        self.plans.evict(shape)
        self.cache.invalidate()
        self.database.resilience.incr("plan_invalidations")

    # -- consistent query answering (ROADMAP E19) -------------------------------------

    def ask_consistent(
        self,
        goal: Union[str, Term],
        max_solutions: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> list[dict[str, Value]]:
        """The goal's *certain* answers: tuples true in every repair.

        A repair keeps exactly one tuple of each primary-key-equal block
        of every base relation; certain answers are the intersection of
        the goal's answers over all repairs (consistent query answering).
        Three regimes, decided per ask:

        * **clean store** — one cached key-violation probe per involved
          relation shows no violating blocks; the ask delegates to the
          plain pipeline and returns byte-identical answers with zero
          additional statements (the probe itself is cached against the
          backend's per-relation data generation);
        * **rewritten** — the goal's attack graph is acyclic
          (Koutris–Wijsen), so a certainty condition is appended to the
          plain translated query and the whole rewriting executes as one
          prepared, parameterized statement cached in the plan cache
          under the shape's consistent-mode variant — warm consistent
          asks run at warm-ask speed;
        * **enumerated** — outside the rewritable class (self-joins, an
          attack cycle), answers are intersected over the block-wise
          repair space, bounded by
          :data:`~repro.cqa.repairs.MAX_REPAIRS` and memoized per data
          generation.

        Only pure-external, non-recursive conjunctive goals have repair
        semantics here; anything else raises
        :class:`~repro.errors.CqaError`.  ``deadline`` and transient
        retries behave exactly as in :meth:`ask`.
        """
        return self._traced(
            "ask_consistent", self._ask_consistent_once, goal, max_solutions,
            deadline,
        )

    def _ask_consistent_once(
        self, goal: Term, max_solutions: Optional[int], span=None
    ) -> list[dict[str, Value]]:
        relations = self._relations_of_goal(goal)
        self._merge_pending_for(relations)
        dirty: dict[str, RelationViolations] = {}
        for name in sorted(relations):
            snapshot = self.cqa_detector.violations(name)
            if not snapshot.is_clean:
                dirty[name] = snapshot
        if not dirty:
            # Every repair of a clean store is the store itself: certain
            # answers coincide with plain answers, and the plain pipeline
            # (same span, same caches) answers without one extra
            # statement beyond the cached probes above.
            self.cqa_stats.incr("clean_fast_paths")
            if span is not None:
                span.cqa = {"mode": "clean_fast_path", "violating_blocks": 0}
            return self._ask_once(goal, max_solutions, span)
        with self.kb.lock.write():
            return self._ask_consistent_dirty(goal, dirty, max_solutions, span)

    def _merge_pending_for(self, relations: Iterable[str]) -> None:
        """Merge pending internal segments before violation probes.

        A fact asserted into a base relation can introduce (or resolve)
        a key violation; probing the pre-merge store would answer for
        data the subsequent execution never sees.
        """
        pending = [
            name
            for name in sorted(set(relations))
            if self.kb.fact_count((name, self.schema.relation(name).arity))
        ]
        if not pending:
            return
        with self.kb.lock.write():
            for name in pending:
                if self.kb.fact_count((name, self.schema.relation(name).arity)):
                    self.merger.materialise_internal(name)

    def _relations_of_goal(self, goal: Term) -> set[str]:
        """Base relations the goal can read, transitively through views."""
        return {
            name
            for name, arity in self._reachable(goal)
            if self._is_base_relation(name, arity)
        }

    def _ask_consistent_dirty(
        self,
        goal: Term,
        dirty: dict[str, RelationViolations],
        max_solutions: Optional[int],
        span=None,
    ) -> list[dict[str, Value]]:
        """The certain-answer pipeline for a store with violations."""
        shape, plan = self._lookup_plan(goal, ("cqa",), span)
        if plan is not None:
            self.cqa_stats.incr("rewrite_cache_hits")
        else:
            try:
                material, plan = self._compile_cqa_plan(goal, shape)
            except CqaError:
                raise
            except Exception:
                if shape is not None:
                    self.plans.mark_uncacheable(shape)
                raise
            if span is not None:
                span.plan_cache = "miss"
                span.plan_kind = plan.kind
            if shape is not None:
                self.plans.store(shape, material, plan)
        return self._execute_plan(
            plan, shape, goal, max_solutions, span, dirty=dirty
        )

    def _compile_cqa_plan(
        self, goal: Term, shape: Optional[GoalShape]
    ) -> tuple[frozenset, CompiledPlan]:
        """Classify the goal and compile its consistent-mode plan.

        Rewriting compiles are expected to repeat, so a shape with
        constants is parameterized eagerly on its first miss, with a
        single marker-analysis attempt: any sign the compilation
        consulted a concrete value falls back to an exact-constant plan
        at once instead of iterating.
        """
        if self._is_recursive(goal):
            raise CqaError(
                "consistent answers are not defined for recursive goals: "
                "neither the rewriting nor the repair enumeration covers "
                "them (ROADMAP E19 scope)"
            )
        try:
            split = plan_goal(self.kb, self.schema, goal, graph=self._call_graph())
        except CouplingError as error:
            raise CqaError(
                f"goal mixes internal and external knowledge inside one "
                f"view; repairs only range over the external store: {error}"
            ) from error
        if not split.is_pure_external:
            raise CqaError(
                "consistent answers need a pure-external conjunctive goal; "
                "internal conjuncts have no repair semantics"
            )
        self.cqa_stats.incr("rewrite_compiles")
        external_goal = conjoin(split.external)
        interface = set(split.interface_variables)
        fetch_targets = tuple(
            v
            for v in variables_of(external_goal)
            if not v.is_anonymous and v in interface
        )
        finish = functools.partial(self._cqa_plan, fetch_targets)
        options = self._simplify_options
        if shape is not None and shape.constants:
            artifacts = {
                "kind": "cqa",
                "external": range(len(conjuncts(goal))),
                "fetch_targets": fetch_targets,
                "options": options,
            }
            relevant = frozenset(range(shape.parameter_count))
            material, plan = self._parameterize(
                shape, goal, artifacts, relevant, finish=finish, attempts=1
            )
            if plan is not None:
                return material, plan
        # Exact-constant fallback: one plan per concrete constant tuple.
        material = (
            frozenset(range(shape.parameter_count)) if shape else frozenset()
        )
        predicate = self.metaevaluator.metaevaluate(
            external_goal, targets=list(fetch_targets)
        )
        result = simplify(predicate, self.constraints, options)
        plan = None
        if not result.is_empty:
            plan = finish(
                self._cost_ordered(result.predicate, options), {}, (), {}
            )
        if plan is None:
            # Empty under the integrity constraints (every repair satisfies
            # them by construction, so certainly empty), or a false ground
            # comparison survived into translation.
            plan = CompiledPlan(
                kind="cqa",
                is_empty=True,
                template=result.original,
                fetch_targets=fetch_targets,
            )
        return material, plan

    def _cqa_plan(
        self,
        fetch_targets: tuple[Variable, ...],
        final: DbclPredicate,
        parameter_map: dict,
        open_params: tuple[int, ...],
        param_columns: dict,
    ) -> Optional[CompiledPlan]:
        """Decide rewriting vs. enumeration, build the compiled plan.

        ``kind="cqa"`` plans carry the full rewritten statement — the
        plain translated query with the certainty condition appended —
        while ``kind="cqa_enum"`` plans carry only the template for the
        repair enumerator.  The parameterized ``sql`` tree is stored as
        ``None`` in both: an ``IN (VALUES …)`` batch variant would let
        one goal's answer satisfy another goal's certainty condition,
        so consistent plans must never take the batch path.  ``None``
        when the translated query is provably empty.
        """
        keys_of = {
            row.tag: self.cqa_detector.key_of(row.tag) for row in final.rows
        }
        order = peel_order(final, keys_of)
        common = dict(
            template=final,
            open_params=open_params,
            param_columns=param_columns,
            fetch_targets=fetch_targets,
        )
        if order is None:
            return CompiledPlan(kind="cqa_enum", **common)
        sql = translate(final, distinct=True, parameters=parameter_map or None)
        if sql.is_empty:
            return None
        suffix, suffix_markers = certainty_suffix(
            final, order, parameters=parameter_map
        )
        plain = self.database.prepare(sql)
        connector = (
            " AND "
            if (sql.where or sql.batch_conditions or sql.extra_conditions)
            else " WHERE "
        )
        bind_order = tuple(sql.parameter_order()) + tuple(
            marker_index(marker) for marker in suffix_markers
        )
        return CompiledPlan(
            kind="cqa",
            sql_text=plain + connector + suffix,
            bind_order=bind_order,
            **common,
        )

    def _certain_rows(
        self,
        plan: CompiledPlan,
        constants: tuple,
        bound: DbclPredicate,
        dirty: dict[str, RelationViolations],
        cqa_info: dict,
    ) -> list[tuple]:
        """Rows of a bound consistent-mode plan over a store with violations."""
        if plan.kind == "cqa":
            try:
                with self.database.fault_context("cqa_rewrite"):
                    rows = self.database.execute_prepared(
                        plan.sql_text, plan.bind_values(constants)
                    )
            except TransientBackendError:
                raise  # retried whole by the resilient driver
            except ExecutionError:
                # Degradation rung (extends the PR 6 ladder): the
                # rewriting statement failed permanently, so fall to
                # repair enumeration, which reads the store through
                # plain per-relation fetches instead.
                self.database.resilience.incr("degraded_answers")
                self.cqa_stats.incr("degraded")
                cqa_info["mode"] = "enumerated"
                cqa_info["degraded"] = True
            else:
                self.cqa_stats.incr("rewritten_asks")
                return rows
        return self._enumerate_certain(bound, dirty)

    def _enumerate_certain(
        self,
        predicate: DbclPredicate,
        dirty: dict[str, RelationViolations],
    ) -> list[tuple]:
        """Intersect the goal's answer rows over every repair (memoized).

        Certain-answer rows never enter the :class:`ResultCache` — its
        canonical key is the predicate alone, and the *plain* executor
        stores rows under the same key with different (non-certain)
        contents — so enumeration results memoize here instead, keyed by
        predicate plus the data generations of every involved relation.
        """
        tags = sorted({row.tag for row in predicate.rows})
        generations = tuple(
            (tag, self.database.data_generation(tag)) for tag in tags
        )
        memo_key = (predicate.canonical_key(), generations)
        with self._cqa_memo_lock:
            certain = self._cqa_memo.get(memo_key)
        if certain is not None:
            self.cqa_stats.incr("memo_hits")
        else:
            fixed: dict[str, list] = {}
            blocks: dict[str, list] = {}
            for tag in tags:
                rows = [
                    tuple(row) for row in self.database.fetch_relation(tag)
                ]
                snapshot = dirty.get(tag)
                if snapshot is None or snapshot.is_clean:
                    fixed[tag] = list(dict.fromkeys(rows))
                    blocks[tag] = []
                    continue
                attributes = tuple(self.schema.relation(tag).attributes)
                key_positions = [
                    attributes.index(a) for a in snapshot.key
                ]
                fixed[tag], blocks[tag] = split_blocks(rows, key_positions)
            certain = cqa_certain_answers(
                predicate, fixed, blocks, stats=self.cqa_stats
            )
            with self._cqa_memo_lock:
                if len(self._cqa_memo) >= 256:
                    self._cqa_memo.clear()
                self._cqa_memo[memo_key] = certain
        self.cqa_stats.incr("fallback_asks")
        return sorted(certain, key=repr)

    def integrity_report(self) -> dict:
        """Per-relation key/FD violation counts with sample blocks.

        Key violations come from the detector's cached probes (so a
        clean relation re-reports for free); violations of the declared
        functional dependencies beyond the primary key are counted in
        Python over one deduplicated fetch per relation that declares
        any.  Diagnostic view — nothing here feeds the ask paths.
        """
        report: dict[str, dict] = {}
        for name in sorted(self.schema.relations):
            snapshot = self.cqa_detector.violations(name)
            attributes = tuple(self.schema.relation(name).attributes)
            entry: dict = {
                "key": list(snapshot.key),
                "key_violations": snapshot.block_count,
                "violating_rows": snapshot.violating_rows,
                "sample_blocks": [
                    {
                        "key": list(key_value),
                        "rows": [list(row) for row in block[:4]],
                    }
                    for key_value, block in list(
                        zip(snapshot.key_values, snapshot.blocks)
                    )[:3]
                ],
                "funcdeps": [],
            }
            rows: Optional[list[tuple]] = None
            for dependency in self.constraints.funcdeps_of(name):
                if rows is None:
                    rows = list(
                        dict.fromkeys(
                            tuple(row)
                            for row in self.database.fetch_relation(name)
                        )
                    )
                lhs_positions = [attributes.index(a) for a in dependency.lhs]
                rhs_positions = [attributes.index(a) for a in dependency.rhs]
                groups: dict[tuple, set] = {}
                for row in rows:
                    groups.setdefault(
                        tuple(row[i] for i in lhs_positions), set()
                    ).add(tuple(row[i] for i in rhs_positions))
                entry["funcdeps"].append(
                    {
                        "lhs": list(dependency.lhs),
                        "rhs": list(dependency.rhs),
                        "violations": sum(
                            1
                            for images in groups.values()
                            if len(images) > 1
                        ),
                    }
                )
            report[name] = entry
        return report

    # -- set-oriented batch serving ---------------------------------------------------

    def ask_many(
        self,
        goals: Iterable[Union[str, Term]],
        max_solutions: Optional[int] = None,
        deadline: Optional[float] = None,
        consistent: bool = False,
    ) -> list[list[dict[str, Value]]]:
        """Answer a batch of goals, one execution per warm goal shape.

        Goals are grouped by :func:`goal_shape`; each group whose shape
        has a warm fully-parameterized pure-external plan executes
        **once**: the members' constant tuples fold into an
        ``IN (VALUES …)`` parameter-batch variant of the prepared
        statement, and the fetched rows — widened with the constants they
        matched — demultiplex back into per-goal answer lists (paper §7:
        "process multiple database queries simultaneously").

        Cold shapes warm up through at most two serial asks (the lazy
        compiler parameterizes a shape on its second miss) and the
        remainder batches; constant-sensitive, mixed, recursive,
        engine-resolved, and unshapeable goals fall back to the serial
        path.  Per-goal answer lists come back in input order, each
        containing exactly the answers ``self.ask(goal)`` would return —
        the *set* is guaranteed identical (gated by the E14
        differentials); the order *within* one goal's answers follows
        the batched statement's row emission, which SQLite does not
        promise matches the serial statement's.

        ``deadline`` budgets the whole batch (one shared scope; see
        :meth:`ask`).  A group whose batched statement fails for any
        backend reason — transient or permanent — degrades to the serial
        path, where each member goal gets the full per-ask retry and
        plan-recovery treatment.

        ``consistent=True`` asks for *certain* answers (see
        :meth:`ask_consistent`).  When every relation any batch member
        can reach is violation-free, certain answers coincide with plain
        answers and the batch executes through the ordinary set-oriented
        machinery — warm consistent shapes batch at full speed.  A store
        with violations serializes: each goal runs through
        :meth:`ask_consistent`, whose certainty condition is inherently
        per-goal (folding it into an ``IN (VALUES …)`` batch would be
        unsound).
        """
        parsed = [
            parse_goal(goal) if isinstance(goal, str) else goal for goal in goals
        ]
        if consistent:
            reachable: set[str] = set()
            for goal in parsed:
                reachable |= self._relations_of_goal(goal)
            self._merge_pending_for(reachable)
            if self.cqa_detector.dirty_relations(sorted(reachable)):
                with self.database.deadline(deadline):
                    return [
                        self.ask_consistent(goal, max_solutions)
                        for goal in parsed
                    ]
            self.cqa_stats.incr("clean_fast_paths", len(parsed))
        answers: list[Optional[list[dict[str, Value]]]] = [None] * len(parsed)
        groups: dict[tuple, list[int]] = {}
        serial: list[int] = []
        shapes: list[Optional[GoalShape]] = []
        for position, goal in enumerate(parsed):
            shape = goal_shape(goal) if self._plan_caching else None
            shapes.append(shape)
            if shape is None or not shape.constants:
                serial.append(position)
            else:
                groups.setdefault(shape.key, []).append(position)
        with self.database.deadline(deadline):
            for members in groups.values():
                try:
                    self._ask_group(
                        parsed, shapes, members, answers, max_solutions
                    )
                except (CouplingError, DeadlineExceeded):
                    raise
                except ExecutionError:
                    # Batch rung failed: hand every member to the serial
                    # path (answers set mid-group are recomputed — ask is
                    # idempotent and the serial result is authoritative).
                    self.database.resilience.incr("degraded_answers")
                    for position in members:
                        answers[position] = None
                    serial.extend(members)
            for position in serial:
                answers[position] = self.ask(parsed[position], max_solutions)
        return [a if a is not None else [] for a in answers]

    def batch_executor(self, share: bool = True):
        """A multiple-query optimizer sharing this session's plan cache.

        The returned :class:`~repro.coupling.multi_query.BatchExecutor`
        prepares each common-core widened scan once (stored in the plan
        cache under a pseudo shape, invalidated with the knowledge base
        generation like every compiled plan) and re-executes prepared
        statements on later batches.
        """
        from .multi_query import BatchExecutor

        return BatchExecutor(
            self.database,
            self.constraints,
            optimize=self.optimize,
            share=share,
            plans=self.plans if self._plan_caching else None,
            kb=self.kb,
        )

    def _batchable_plan(self, shape: GoalShape):
        """The shared fully-parameterized plan for a shape, if it has one.

        ``None`` means "not yet": the caller keeps warming the shape
        serially while ``attempted`` is false, and falls back to the
        serial path once the shape is known constant-sensitive,
        uncacheable, or anything but pure-external.
        """
        self.plans.sync(self.kb)
        entry = self.plans.entry_for(shape)
        if entry is None or entry.uncacheable or not entry.attempted:
            return None
        if entry.material:
            return None  # constant-sensitive: exact variants only
        plan = entry.variants.get(())
        if (
            plan is None
            or plan.kind != "external"
            or plan.internal_indices
            or plan.is_empty
            or not plan.open_params
        ):
            return None
        return plan

    def _ask_group(
        self,
        parsed: list[Term],
        shapes: list[Optional[GoalShape]],
        members: list[int],
        answers: list,
        max_solutions: Optional[int],
    ) -> None:
        """Answer one same-shape group, batching once the shape is warm.

        Two batch forms exist: flat warm shapes fold their constants into
        an ``IN (VALUES …)`` variant of the prepared statement, and warm
        *recursive* single-bound shapes fold their seeds into a
        batch-seeded ``WITH RECURSIVE`` statement (one fixpoint run for
        the whole group).  Everything else answers serially.
        """
        pending = list(members)
        plan = recursive = None
        while pending:
            if len(pending) > 1:
                plan = self._batchable_plan(shapes[pending[0]])
                if plan is not None:
                    break
                recursive = self._recursive_batch_closure(
                    shapes[pending[0]], parsed[pending[0]]
                )
                if recursive is not None:
                    break
            position = pending.pop(0)
            answers[position] = self.ask(parsed[position], max_solutions)
        if not pending:
            return
        group_shapes = [shapes[position] for position in pending]
        group_goals = [parsed[position] for position in pending]
        # One *group* span covers the whole batched execution — a span
        # per member would cost more than the batch itself (~6µs/goal);
        # the tracer expands the group back to per-goal records on read.
        with self.tracer.group(len(pending)) as gspan:
            if plan is not None:
                batched = self._execute_batch(
                    plan, group_shapes, group_goals, max_solutions
                )
                batch_kind = "external"
            else:
                batched = self._execute_recursive_batch(
                    recursive, group_shapes, group_goals
                )
                batch_kind = "recursive"
            if batched is not None and gspan is not None:
                gspan.shape_key = group_shapes[0].key
                gspan.phases["batch"] = time.perf_counter() - gspan.t0
                self.tracer.commit_group(
                    gspan,
                    group_goals,
                    [len(result) for result in batched],
                    batch_kind,
                )
        if batched is None:
            for position in pending:
                answers[position] = self.ask(parsed[position], max_solutions)
            return
        for position, result in zip(pending, batched):
            answers[position] = result

    def _recursive_batch_closure(self, shape: GoalShape, goal: Term):
        """``(closure, bound_side, variable_name)`` for a batchable
        recursive shape, else ``None``.

        Batchable means: a single binary view call with exactly one
        constant argument, whose shape already holds a warm plan of kind
        ``recursive``, whose view is linearly recursive, and which is
        *not* maintained (maintained views answer from their
        :class:`IncrementalClosure` on the serial path — PR 3 semantics).
        """
        if shape is None or len(shape.constants) != 1:
            return None
        goal_list = conjuncts(goal)
        if len(goal_list) != 1 or not isinstance(goal_list[0], Struct):
            return None
        call = goal_list[0]
        if len(call.args) != 2:
            return None
        low_arg, high_arg = call.args
        if isinstance(low_arg, Atom) and isinstance(high_arg, Variable):
            bound, variable = "low", high_arg
        elif isinstance(high_arg, Atom) and isinstance(low_arg, Variable):
            bound, variable = "high", low_arg
        else:
            return None
        self.plans.sync(self.kb)
        entry = self.plans.entry_for(shape)
        if entry is None or entry.uncacheable:
            return None
        plan = entry.variants.get(entry.variant_key(shape.constants))
        if plan is None or plan.kind != "recursive":
            return None
        indicator = call.indicator
        if self.materialize.has_view(indicator):
            return None
        if indicator not in self.plans.recursive_indicators(self.kb, self.schema):
            return None
        try:
            closure = self.closure_for(indicator[0])
            # Only batch what the CTE can answer; a view whose pushdown
            # preparation fails keeps the serial frontier path.  The
            # first preparation metaevaluates the edge view, which reads
            # the knowledge base: read-locked.
            with self.kb.lock.read():
                closure.cte_queries()
        except Exception:  # noqa: BLE001 - fall back to serial asks
            return None
        return closure, bound, variable.name

    def _execute_recursive_batch(
        self,
        recursive,
        shapes: Sequence[GoalShape],
        goals: Sequence[Term],
    ) -> Optional[list[list[dict[str, Value]]]]:
        """One batch-seeded ``WITH RECURSIVE`` run for a same-shape group.

        The group's seed constants fold into the statement's
        ``IN (VALUES …)`` membership; fetched ``(root, node)`` rows
        demultiplex by root back to per-goal answer lists identical to
        serial :meth:`ask` (which sorts closure pairs, so ordering
        matches too).  Returns ``None`` to fall back to serial asks.
        """
        closure, bound, variable_name = recursive
        seeds = [shape.constants[0] for shape in shapes]
        distinct: dict = dict.fromkeys(seeds)
        if len({str(seed) for seed in distinct}) != len(distinct):
            return None  # affinity-coercible seed collision: serial
        with self.kb.lock.read():
            self.plans.sync(self.kb)
            entry = self.plans.entry_for(shapes[0])
            if entry is None or entry.uncacheable:
                return None  # a concurrent write invalidated the plan
            try:
                # Interval batch probe when the labeling serves (seed
                # intervals matched through one IN (VALUES …) CTE), the
                # batch-seeded WITH RECURSIVE otherwise.  Under the read
                # lock: freshening the labeling must not race a writer.
                text = closure.batch_probe_text(bound, len(distinct))
            except Exception:  # noqa: BLE001 - no batch form at all
                return None
            rows = self.database.execute_prepared(text, list(distinct))
        demux: dict = {seed: set() for seed in distinct}
        for root, node in rows:
            bucket = demux.get(root)
            if bucket is None:
                return None  # affinity coerced a seed: answer serially
            bucket.add(node)
        self.plans.stats.incr("batched_asks", len(goals))
        self.plans.stats.incr("recursive_batches")
        return [
            [{variable_name: node} for node in sorted(demux[seed])]
            for seed in seeds
        ]

    def _execute_batch(
        self,
        plan: CompiledPlan,
        shapes: Sequence[GoalShape],
        goals: Sequence[Term],
        max_solutions: Optional[int],
    ) -> Optional[list[list[dict[str, Value]]]]:
        """One prepared execution for a whole same-shape group, demuxed.

        Returns ``None`` to make the caller fall back to serial asks —
        when the plan has no batchable SQL form, a pending segment merge
        needs the write lock, the plan went stale under a concurrent
        write between warm-up and execution, a ``max_solutions`` cap is
        in force (the serial path defines which prefix of the answers is
        returned), or a fetched row's anchor values fail to demultiplex
        (SQLite affinity matched a constant Python equality cannot).
        """
        if max_solutions is not None:
            return None
        # Per-goal valuebound replay: members whose constants violate a
        # declared domain are provably empty and never reach the batch.
        keys: list[Optional[tuple]] = []
        distinct: dict[tuple, None] = {}
        for shape in shapes:
            if plan.bind_is_empty(shape.constants, self.constraints):
                self.plans.stats.incr("bind_empties")
                keys.append(None)
                continue
            key = tuple(shape.constants[i] for i in plan.open_params)
            keys.append(key)
            distinct[key] = None
        live = [key for key in keys if key is not None]
        if not live:
            return [[] for _ in goals]
        if len(live) < 2:
            return None  # a lone live member gains nothing from batching
        # Two *distinct* Python keys that SQLite affinity would coerce to
        # one value (30000 vs '30000') would share every fetched row's
        # anchor tuple, silently starving one member; textual collision is
        # a safe over-approximation of the coercion rules, so such
        # batches answer serially.
        if len({tuple(str(v) for v in key) for key in distinct}) != len(distinct):
            return None
        text = plan.batch_statement(self.database, len(distinct))
        if text is None:
            return None
        constants_by_key: dict[tuple, tuple] = {}
        for shape, key in zip(shapes, keys):
            if key is not None and key not in constants_by_key:
                constants_by_key[key] = shape.constants
        with self.kb.lock.read():
            if self._pending_segments(plan.template):
                return None
            self.plans.sync(self.kb)
            first = self.plans.entry_for(shapes[0])
            if first is None or first.variants.get(()) is not plan:
                return None  # a concurrent write invalidated the plan
            rows = self.database.execute_prepared(
                text,
                plan.batch_bind_values(
                    [constants_by_key[key] for key in distinct]
                ),
            )
        demux: dict[tuple, list[tuple]] = {key: [] for key in distinct}
        width = len(plan.open_params)
        for row in rows:
            bucket = demux.get(row[-width:])
            if bucket is None:
                # SQL equality matched where Python equality does not
                # (column affinity coerced the constant, e.g. TEXT '30000'
                # against an INTEGER column): demultiplexing would drop
                # the row, so answer this batch serially instead.
                return None
            bucket.append(row)
        self.plans.stats.incr("batched_asks", len(goals))
        self.plans.stats.incr("batch_executions")
        # Every member shares the shape, so target columns and answer
        # variable names are identical across the group: resolve them once
        # (mirroring _rows_to_answers) instead of per goal.
        names = [t.name for t in plan.template.target_symbols()]
        wanted = {
            v.name
            for v in variables_of(goals[0])
            if not v.is_anonymous
        }
        columns = [
            (column, name)
            for column, name in enumerate(names)
            if name in wanted
        ]
        results: list[list[dict[str, Value]]] = []
        for key in keys:
            if key is None:
                results.append([])
                continue
            answers: list[dict[str, Value]] = []
            seen: set[tuple] = set()
            for row in demux[key]:
                answer_key = tuple(row[column] for column, _ in columns)
                if answer_key not in seen:
                    seen.add(answer_key)
                    answers.append(
                        {name: row[column] for column, name in columns}
                    )
            results.append(answers)
        return results

    def _ask_cold(
        self, goal: Term, max_solutions: Optional[int]
    ) -> tuple[list[dict[str, Value]], dict]:
        """The full classify→compile→execute pipeline (plan-cache miss)."""
        goal_vars = [v for v in variables_of(goal) if not v.is_anonymous]
        if self._is_recursive(goal):
            return self._ask_recursive(goal), {"kind": "recursive"}

        mark = time.perf_counter()
        self.compile_phases.incr("cold_compilations")
        try:
            split = plan_goal(self.kb, self.schema, goal, graph=self._call_graph())
        except CouplingError:
            # A "mixed" goal interleaves database and internal knowledge in
            # one view — the paper's programs handle these themselves by
            # calling metaevaluate/4 inside the rule (the partner example),
            # so ordinary Prolog resolution is the correct evaluator.
            split = None
        if split is None or split.is_pure_internal:
            return (
                self._answers_from_engine(goal, goal_vars, max_solutions),
                {"kind": "engine"},
            )

        mark = self._phase("classify", mark)
        external_goal = conjoin(split.external)
        interface = set(split.interface_variables)
        index_of = {id(term): i for i, term in enumerate(conjuncts(goal))}
        artifacts: dict = {
            "kind": "external" if split.is_pure_external else "mixed",
            "external": [index_of[id(term)] for term in split.external],
            "internal": tuple(index_of[id(term)] for term in split.internal),
            "fetch_targets": [
                v
                for v in variables_of(external_goal)
                if not v.is_anonymous and v in interface
            ],
            "options": self._simplify_options,
        }
        rows = self._run_cold(external_goal, mark, artifacts)
        final = artifacts["final"]
        if final is None:
            return [], artifacts
        if split.is_pure_external:
            answers = self._rows_to_answers(final, rows, goal_vars)
            if max_solutions is not None:
                return answers[:max_solutions], artifacts
            return answers, artifacts

        # Mixed: assert the external answers under a fresh interface
        # predicate, then let Prolog combine them with internal knowledge.
        answers = self._combine_with_internal(
            final, artifacts["fetch_targets"], rows, split.internal, goal_vars,
            max_solutions,
        )
        return answers, artifacts

    def _combine_with_internal(
        self,
        final: DbclPredicate,
        fetch_targets: Sequence[Variable],
        rows: Sequence[tuple],
        internal_goals: Sequence[Term],
        goal_vars: Sequence[Variable],
        max_solutions: Optional[int],
    ) -> list[dict[str, Value]]:
        """Mixed-plan tail: stage fetched answers, resolve the remainder."""
        interface_name = self._interface_name(final)
        interface_goal = Struct(interface_name, tuple(fetch_targets))
        # Interface facts are derived bookkeeping, not program clauses:
        # they must not invalidate compiled plans (see KnowledgeBase
        # generation semantics).
        with self.kb.preserve_generation():
            self.kb.retract_all((interface_name, len(fetch_targets)))
            assert_answers(self.kb, interface_goal, final, fetch_targets, rows)
        rewritten = conjoin([interface_goal] + list(internal_goals))
        return self._answers_from_engine(rewritten, goal_vars, max_solutions)

    def _is_base_relation(self, name: str, arity: int) -> bool:
        return (
            self.schema.has_relation(name)
            and self.schema.relation(name).arity == arity
        )

    def _call_graph(self):
        """The view call graph: memoized per KB generation by the plan
        cache, rebuilt on every call by the uncached reference session."""
        if self._plan_caching:
            return self.plans.graph(self.kb, self.schema)
        return view_call_graph(self.kb, self.schema)

    def _reachable(self, goal: Term) -> set[tuple[str, int]]:
        """The goal's predicates plus everything they reach in the call graph.

        The one walk behind result dependencies, consistent-mode relation
        sets, and the constant-discrimination check.  Per-predicate
        results memoize on the graph object itself, so they live exactly
        as long as the plan cache's memoized graph (one KB generation).
        """
        import networkx as nx

        graph = self._call_graph()
        memo = graph.graph.setdefault("reachable", {})
        reachable: set[tuple[str, int]] = set()
        for term in conjuncts(goal):
            try:
                indicator = goal_indicator(term)
            except ValueError:
                continue
            found = memo.get(indicator)
            if found is None:
                found = {indicator}
                if graph.has_node(indicator):
                    found |= nx.descendants(graph, indicator)
                found = memo[indicator] = frozenset(found)
            reachable |= found
        return reachable

    def _result_dependencies(
        self, predicate: DbclPredicate, goal: Optional[Term] = None
    ) -> frozenset:
        """What a cached result for ``predicate`` depends on, transitively.

        Row tags cover the base relations the *compiled* query reads, but
        a goal over views depends on the intermediate view definitions
        too: new clauses (or facts) for ``works_dir_for`` must drop a
        cached ``same_manager`` result even though the compiled tableau
        only mentions ``empl``/``dept``.  The view call graph supplies the
        names on the path plus any indirect base relations simplification
        may have reasoned away.
        """
        relations = {row.tag for row in predicate.rows}
        if goal is not None:
            relations.update(
                name
                for name, arity in self._reachable(goal)
                if self._is_base_relation(name, arity)
                or self.kb.has_procedure((name, arity))
            )
        return frozenset(relations)

    @staticmethod
    def _interface_name(predicate: DbclPredicate) -> str:
        """A stable, collision-resistant name for an interface predicate.

        Derived from a digest of the canonical key so it is identical
        across runs (no dependence on Python hash randomization) and
        distinct for structurally different predicates.
        """
        digest = hashlib.blake2b(
            repr(predicate.canonical_key()).encode("utf-8"), digest_size=6
        ).hexdigest()
        return f"$ext_{digest}"

    # -- plan compilation --------------------------------------------------------------

    def _compile_plan(self, shape: GoalShape, goal: Term, artifacts: dict) -> None:
        """Compile and store a reusable plan for the goal's shape.

        The plan compiler behind ``ask`` and the ``metaevaluate/4``
        fetch, fed by the :meth:`_run_cold` artifacts.  Never raises: a
        shape the machinery cannot compile (disjunctive views, unexpected
        structure) is marked uncacheable so the session does not retry on
        every ask.
        """
        # retain, not sync: the cold run's own side effects (a segment
        # merge, a fetch's answer facts) advanced the generation, but this
        # shape's cache slot (and its lazy `attempted` progress) stays valid.
        self.plans.retain(shape, self.kb)
        kind = artifacts["kind"]
        try:
            if kind in ("recursive", "engine"):
                self.plans.store(shape, (), CompiledPlan(kind=kind))
                return
            # Constants inside internal conjuncts never reach the external
            # compilation, and the warm path re-reads internal conjuncts
            # from the live goal — so they are neither parameterized nor
            # part of the variant key, and rotating them reuses one plan.
            relevant = self._params_in_conjuncts(
                conjuncts(goal), artifacts["external"]
            )
            strategy = self._compile_strategy(shape, relevant)
            plan = None
            if isinstance(strategy, frozenset):
                material, plan = self._parameterize(
                    shape,
                    goal,
                    artifacts,
                    relevant,
                    initial_material=strategy,
                        finish=functools.partial(self._sql_plan, artifacts),
                )
            if plan is None:
                # Deferred (first miss) or constant-sensitive on every
                # relevant position: cache the cold compilation itself,
                # keyed by the exact constants.
                material, plan = relevant, self._exact_plan(artifacts)
            self.plans.store(
                shape, material, plan, attempted=strategy is not None
            )
        except Exception:
            self.plans.mark_uncacheable(shape)

    @staticmethod
    def _params_in_conjuncts(
        conjunct_list: Sequence[Term], selected: Iterable[int]
    ) -> frozenset:
        """Parameter indices occupied by the selected conjuncts.

        Mirrors :func:`goal_shape`'s traversal: constants are numbered
        across the whole conjunction; only those inside the selected
        conjunct positions are returned.
        """
        wanted = set(selected)
        found: set[int] = set()
        position = 0
        for index, conjunct in enumerate(conjunct_list):
            if not isinstance(conjunct, Struct):
                continue
            for argument in conjunct.args:
                if isinstance(argument, Variable):
                    continue
                if index in wanted:
                    found.add(position)
                position += 1
        return frozenset(found)

    def _compile_strategy(
        self, shape: GoalShape, relevant: frozenset
    ) -> Union[None, str, frozenset]:
        """How to build this shape's plan, given its cache history.

        * ``None`` — first encounter: store the cold compilation as a
          cheap exact-constant plan; defer the marker analysis until the
          shape proves it repeats (one-off goals never pay for it);
        * ``"exact"`` — parameterization already failed for this shape:
          add another exact variant without re-running the analysis;
        * a frozenset — run the marker analysis, seeded with the material
          set discovered previously (skips the discovery iterations when
          a partial-material shape compiles a new variant).
        """
        entry = self.plans.entry_for(shape)
        if entry is None or entry.uncacheable:
            return None
        if not entry.attempted:
            return frozenset()
        if entry.material == tuple(sorted(relevant)):
            return "exact"
        return frozenset(entry.material) & relevant

    def _exact_plan(self, artifacts: dict) -> CompiledPlan:
        """A plan replaying one cold compilation for its exact constants."""
        final = artifacts["final"]
        sql_text = artifacts.get("sql_text")
        common = dict(
            kind=artifacts["kind"],
            fetch_targets=tuple(artifacts["fetch_targets"]),
            internal_indices=artifacts["internal"],
        )
        if final is None:
            # An empty fetch reports its pre-simplification predicate as
            # the trace; the ask path just answers [].
            return CompiledPlan(
                is_empty=True, template=artifacts["original"], **common
            )
        if sql_text is None:
            sql = translate(final, distinct=True)
            if sql.is_empty:
                # A false ground comparison survived into translation
                # (simplification off): replay the empty answer.
                return CompiledPlan(is_empty=True, template=final, **common)
            sql_text = self.database.prepare(sql)
        return CompiledPlan(template=final, sql_text=sql_text, **common)

    def _sql_plan(
        self,
        artifacts: dict,
        final: DbclPredicate,
        parameter_map: dict,
        open_params: tuple[int, ...],
        param_columns: dict,
    ) -> Optional[CompiledPlan]:
        """A parameterized plan for a marker compilation, or None if empty."""
        sql = translate(final, distinct=True, parameters=parameter_map)
        if sql.is_empty:
            # A marker-free ground comparison is false for every constant
            # choice; let the exact path replay the empty.
            return None
        return CompiledPlan(
            kind=artifacts["kind"],
            template=final,
            sql_text=self.database.prepare(sql),
            sql=sql,
            bind_order=sql.parameter_order(),
            open_params=open_params,
            param_columns=param_columns,
            fetch_targets=tuple(artifacts["fetch_targets"]),
            internal_indices=artifacts["internal"],
        )

    def _parameterize(
        self,
        shape: GoalShape,
        goal: Term,
        artifacts: dict,
        relevant: frozenset,
        finish,
        initial_material: frozenset = frozenset(),
        attempts: int = 4,
    ) -> tuple[frozenset, Optional[CompiledPlan]]:
        """Find the maximal parameterization of a shape, compile it.

        Starts with every constant abstracted to a marker and grows the
        *material* set (constants the compilation must see concretely)
        until the marker compilation is provably constant-insensitive:

        * Algorithm 2 never consulted a marker's *value* — every ordering
          decision about constants funnels through ``compare_values``,
          which a :func:`watch_marker_consultation` witness instruments;
          equality-only reasoning treats markers as distinct constants,
          which at worst under-simplifies (answer-preserving) or empties
          the marker plan (detected below);
        * the marker plan is non-empty (an empty marker plan means a
          constant interacted with the constraints);
        * every marker survives into the simplified predicate (a vanished
          marker means its restriction was reasoned away).

        The conjuncts at ``artifacts["external"]`` are compiled; the
        ``relevant`` constants are the ones they hold.  ``attempts``
        bounds the growth rounds (1 makes the analysis one-shot).
        ``finish(final, parameter_map, open_params, param_columns)``
        builds the plan from the simplified marker predicate, or returns
        None when it proves empty.

        Returns ``(material, plan)``; ``plan`` is None when every position
        is material — the caller falls back to exact-constant caching.
        Shapes whose reachable clauses pattern-match on constants in their
        heads cannot be parameterized at all (a marker would fail a head
        unification a concrete constant might pass).
        """
        from ..dbcl.symbols import watch_marker_consultation
        from ..errors import TranslationError

        kind, options = artifacts["kind"], artifacts["options"]
        positions = artifacts["external"]
        conjunct_list = conjuncts(goal)
        compiled_goal = conjoin([conjunct_list[i] for i in positions])
        # The fetch path discards branches without database calls, so a
        # fact matching one constant and not another never changes it.
        if self._constant_discriminating(
            compiled_goal, ignore_facts=kind == "fetch"
        ):
            return relevant, None

        irrelevant = frozenset(range(shape.parameter_count)) - relevant
        material: frozenset = frozenset(initial_material) & relevant
        for _attempt in range(attempts):
            if relevant and material == relevant:
                return relevant, None
            # Irrelevant (internal-conjunct) constants keep their concrete
            # values: they never reach the compiled predicate anyway.
            marker_conjuncts = conjuncts(
                goal_with_markers(goal, material | irrelevant)
            )
            predicate_m = self._to_dbcl(
                kind,
                conjoin([marker_conjuncts[i] for i in positions]),
                artifacts["fetch_targets"],
            )
            param_cells = marker_columns(predicate_m)
            open_params = relevant - material
            with watch_marker_consultation() as witness:
                result_m = simplify(predicate_m, self.constraints, options)
            if result_m.is_empty:
                return relevant, None
            if witness.consulted:
                # A marker's value was reasoned about.  Attribute it to the
                # markers visible in comparisons (the only place ordering
                # reasoning reaches) and retry with those made concrete;
                # when the culprit is not attributable, give up entirely.
                culprits = (
                    frozenset(markers_in_comparisons(predicate_m))
                    | frozenset(markers_in_comparisons(result_m.predicate))
                ) & open_params
                if culprits:
                    material |= culprits
                    continue
                return relevant, None
            final_m = result_m.predicate
            vanished = (
                open_params
                - frozenset(markers_in_rows(final_m))
                - frozenset(markers_in_comparisons(final_m))
            )
            if vanished:
                material |= vanished
                continue
            # The same statistics-driven row order a cold compile applies
            # (cardinality estimates never consult a marker's concrete
            # value, so parameterization is unaffected).
            final_m = self._cost_ordered(final_m, options)
            try:
                with watch_marker_consultation() as translate_witness:
                    plan = finish(
                        final_m,
                        {str(marker_for(index)): index for index in open_params},
                        tuple(sorted(open_params)),
                        {index: param_cells.get(index, ()) for index in open_params},
                    )
            except TranslationError:
                return relevant, None
            if translate_witness.consulted or plan is None:
                return relevant, None
            return material, plan
        return relevant, None

    def _constant_discriminating(self, goal: Term, ignore_facts: bool) -> bool:
        """Do reachable clauses pattern-match constants in their heads?

        Unfolding a goal whose argument is a parameter marker must take
        exactly the branches a concrete constant would; a clause head with
        a constant argument breaks that (the marker fails the unification
        some constants would pass), so such shapes stay unparameterized.
        ``ignore_facts`` skips bodyless clauses.
        """
        for indicator in self._reachable(goal):
            for clause in self.kb.all_clauses(indicator):
                if ignore_facts and clause.is_fact:
                    continue
                head = clause.head
                if isinstance(head, Struct) and any(
                    not isinstance(argument, Variable) for argument in head.args
                ):
                    return True
        return False

    # -- plan execution ----------------------------------------------------------------

    def _execute_plan(
        self,
        plan: CompiledPlan,
        shape: Optional[GoalShape],
        goal: Term,
        max_solutions: Optional[int],
        span=None,
        read_only: bool = False,
        dirty: Optional[dict[str, RelationViolations]] = None,
    ):
        """Answer a goal through its compiled plan — the warm executor.

        Binds the shape's constants, fetches rows, and demultiplexes them
        into answers, for ``ask``'s read-locked and write-locked paths
        and for ``ask_consistent``.  ``read_only`` is the read lock's
        contract: a pending segment merge returns :data:`_NEEDS_WRITE`
        instead of mutating.  ``dirty`` (the relations with violations)
        marks a consistent-mode plan, whose rows come from the rewriting
        statement or repair enumeration, never the result cache.
        """
        kind = plan.kind
        if kind == "recursive":
            return self._ask_recursive(goal)
        goal_vars = [v for v in variables_of(goal) if not v.is_anonymous]
        if kind == "engine":
            return self._answers_from_engine(goal, goal_vars, max_solutions)
        constants = shape.constants if shape is not None else ()
        if dirty is not None:
            cqa_info = {
                "mode": "rewritten" if kind == "cqa" else "enumerated",
                "rewritable": kind == "cqa",
                "dirty_relations": sorted(dirty),
                "violating_blocks": sum(v.block_count for v in dirty.values()),
            }
            if span is not None:
                span.cqa = cqa_info
            if plan.is_empty:
                self.cqa_stats.incr("rewritten_asks")
        bound = self._bind(plan, constants)
        if bound is None:
            return []
        if dirty is not None:
            rows = self._certain_rows(plan, constants, bound, dirty, cqa_info)
        elif read_only and self._pending_segments(bound):
            return _NEEDS_WRITE  # merging segments mutates both stores
        else:
            rows = self._rows_for_plan(plan, constants, bound, goal)
            if not read_only:
                # A segment merge inside _rows_for_plan retracts relation
                # facts and advances the KB generation; keep this shape's
                # plan alive.
                self.plans.retain(shape, self.kb)
        if kind == "mixed":
            # The stored fetch targets carry compile-time ordinals; resolve
            # them to this goal's variables by name (the shape key
            # guarantees names match and are unambiguous) so the interface
            # predicate joins with the internal conjuncts.
            by_name = {v.name: v for v in variables_of(goal)}
            conjunct_list = conjuncts(goal)
            return self._combine_with_internal(
                bound,
                [by_name[t.name] for t in plan.fetch_targets],
                rows,
                [conjunct_list[i] for i in plan.internal_indices],
                goal_vars,
                max_solutions,
            )
        if span is not None:
            mark = time.perf_counter()
        answers = self._rows_to_answers(bound, rows, goal_vars)
        if span is not None:
            span.phases["demux"] = time.perf_counter() - mark
        if max_solutions is not None:
            return answers[:max_solutions]
        return answers

    def _bind(
        self, plan: CompiledPlan, constants: tuple
    ) -> Optional[DbclPredicate]:
        """The plan's template with ``constants`` bound, or None if empty.

        Empty means compiled empty, or a constant outside its declared
        domain; only the latter counts as a ``bind_empties``.
        """
        if plan.is_empty:
            return None
        bound = plan.bind(constants, self.constraints)
        if bound is None:
            self.plans.stats.incr("bind_empties")
        return bound

    def _rows_for_plan(
        self,
        plan: CompiledPlan,
        constants: tuple,
        bound: DbclPredicate,
        goal: Optional[Term] = None,
    ) -> list[tuple]:
        """Result rows for a bound plan: result cache, else prepared SQL."""
        rows = self.cache.lookup(bound)
        if rows is None:
            self._merge_internal_segments(bound)
            rows = self.database.execute_prepared(
                plan.sql_text, plan.bind_values(constants)
            )
            self.cache.store(bound, rows, self._result_dependencies(bound, goal))
        return rows

    def _answers_from_engine(
        self,
        goal: Term,
        goal_vars: Sequence[Variable],
        max_solutions: Optional[int],
    ) -> list[dict[str, Value]]:
        def lenient(term: Term) -> Value:
            # Constants convert to plain values; anything else (an unbound
            # variable, a structured term such as a bound DBCL predicate)
            # is rendered as text so answers stay JSON-friendly.
            try:
                return term_to_value(term)
            except CouplingError:
                if isinstance(term, Variable):
                    return None
                from ..prolog.writer import term_to_string

                return term_to_string(term)

        answers = []
        wanted = set(goal_vars)
        for binding in self.engine.solve(goal, max_solutions=max_solutions):
            answers.append(
                {
                    variable.name: lenient(term)
                    for variable, term in binding.items()
                    if variable in wanted
                }
            )
        return answers

    def _rows_to_answers(
        self,
        predicate: DbclPredicate,
        rows: Sequence[tuple],
        goal_vars: Sequence[Variable],
    ) -> list[dict[str, Value]]:
        names = [t.name for t in predicate.target_symbols()]
        wanted = {v.name for v in goal_vars}
        answers = []
        seen: set[tuple] = set()
        for row in rows:
            answer = {
                name: value for name, value in zip(names, row) if name in wanted
            }
            key = tuple(sorted(answer.items()))
            if key not in seen:
                seen.add(key)
                answers.append(answer)
        return answers

    # -- recursion -----------------------------------------------------------------------

    def _is_recursive(self, goal: Term) -> bool:
        if self._plan_caching:
            return is_recursive_goal(
                self.kb,
                self.schema,
                goal,
                graph=self._call_graph(),
                recursive=self.plans.recursive_indicators(self.kb, self.schema),
            )
        return is_recursive_goal(self.kb, self.schema, goal)

    def closure_for(self, view_name: str) -> TransitiveClosure:
        """The (cached) transitive-closure executor for a recursive view."""
        indicator = (view_name, 2)
        with self._closures_lock:
            executor = self._closures.get(indicator)
            if executor is None:
                executor = TransitiveClosure(
                    self.kb,
                    self.schema,
                    self.constraints,
                    self.database,
                    indicator,
                    optimize=self.optimize,
                )
                self._closures[indicator] = executor
            return executor

    def _ask_recursive(self, goal: Term) -> list[dict[str, Value]]:
        goals = conjuncts(goal)
        if len(goals) != 1 or not isinstance(goals[0], Struct):
            raise CouplingError(
                "recursive goals must be a single view call; combine "
                "results in Prolog afterwards"
            )
        call = goals[0]
        indicator = call.indicator
        recursive = (
            self.plans.recursive_indicators(self.kb, self.schema)
            if self._plan_caching
            else recursive_indicators(self.kb, self.schema)
        )
        if indicator not in recursive:
            raise CouplingError(
                f"goal reaches recursion through {indicator}; call the "
                "recursive view directly"
            )
        low_arg, high_arg = call.args
        low = low_arg.name if isinstance(low_arg, Atom) else None
        high = high_arg.name if isinstance(high_arg, Atom) else None
        # Cost-based strategy choice: CTE pushdown for non-trivial edge
        # views, the prepared frontier loop below the statistics
        # threshold.  (Maintained views answered earlier, from their
        # IncrementalClosure, never reach this point.)
        closure = self.closure_for(indicator[0])
        try:
            try:
                run = closure.solve(low=low, high=high, strategy="plan")
            except (CouplingError, DeadlineExceeded):
                raise  # semantic errors and expired budgets are not rungs
            except Exception:  # noqa: BLE001 - any execution failure degrades
                run = self._ask_recursive_degraded(closure, low, high)
        finally:
            # The decision was made even when execution degraded or
            # failed — record it either way (observability satellite).
            if closure.last_plan is not None:
                self.recursion_plans.note(closure.last_plan)
                span = self.tracer.current_span()
                if span is not None:
                    span.note_recursion(
                        closure.last_plan, closure.interval_stats()
                    )
        answers = []
        for pair_low, pair_high in sorted(run.pairs):
            answer: dict[str, Value] = {}
            if isinstance(low_arg, Variable):
                answer[low_arg.name] = pair_low
            if isinstance(high_arg, Variable):
                answer[high_arg.name] = pair_high
            answers.append(answer)
        return answers

    def _ask_recursive_degraded(
        self, closure: TransitiveClosure, low: Optional[str], high: Optional[str]
    ) -> RecursionRun:
        """Step down the recursion ladder when the planned strategy fails.

        When the failed plan was the interval probe, the first rung down
        is the CTE pushdown (stale or failing labels must not cost the
        whole pushdown tier); then the prepared frontier loop on the
        bound side (``auto``); finally one flat edge fetch with the
        fixpoint in Python (``memory``) — the slowest strategy, but the
        one with the fewest backend dependencies.  Answers from any rung
        are identical (the E7 equivalence the tests pin); only the cost
        differs, which is why a stepped-down answer counts as
        *degraded*, not wrong.
        """
        rungs = ["auto", "memory"]
        plan = closure.last_plan
        if plan is not None and plan.strategy == "interval":
            rungs.insert(0, "cte")
        run = None
        for position, rung in enumerate(rungs):
            try:
                run = closure.solve(low=low, high=high, strategy=rung)
                break
            except (CouplingError, DeadlineExceeded):
                raise
            except Exception:  # noqa: BLE001 - try the next rung
                if position == len(rungs) - 1:
                    raise
        self.database.resilience.incr("degraded_answers")
        return run

    def solve_recursive(
        self,
        view_name: str,
        low: Optional[str] = None,
        high: Optional[str] = None,
        strategy: str = "auto",
        max_levels: int = 64,
    ) -> RecursionRun:
        """Direct access to the recursion strategies (benchmarks use this)."""
        # The setrel loop swaps a shared intermediate relation per level;
        # serialize against mutations and other closure runs.
        with self.kb.lock.write():
            closure = self.closure_for(view_name)
            run = closure.solve(
                low=low, high=high, strategy=strategy, max_levels=max_levels
            )
            if strategy == "plan" and closure.last_plan is not None:
                self.recursion_plans.note(closure.last_plan)
            return run

    def heal_materialized(self) -> int:
        """Rebuild quarantined materialized views now, not lazily.

        Quarantined views normally heal at the next write-side
        opportunity (any insert/delete touching their relations, or a
        write-path ask that needs them); this forces the attempt
        immediately.  Returns how many views remain quarantined — zero
        means fully healed.  Write-locked: healing refreshes views
        against the current visible union.
        """
        with self.kb.lock.write():
            return self.materialize.heal_all()

    # -- extensions (paper section 7) ------------------------------------------------------

    def ask_disjunctive(self, goal: Union[str, Term]) -> list[dict[str, Value]]:
        """Answer a goal over a disjunctive view via per-conjunct UNION."""
        from ..extensions.disjunction import translate_disjunctive

        if isinstance(goal, str):
            goal = parse_goal(goal)
        targets = [v for v in variables_of(goal) if not v.is_anonymous]
        with self.kb.lock.read():
            translation = translate_disjunctive(
                self.metaevaluator, goal, self.constraints, targets=targets,
                options=self._simplify_options,
            )
            rows = self.database.execute(translation.union)
        live = [p for p in translation.simplified if p is not None]
        if not live:
            return []
        names = [t.name for t in live[0].target_symbols()]
        seen: set[tuple] = set()
        answers = []
        for row in rows:
            if row not in seen:
                seen.add(row)
                answers.append(dict(zip(names, row)))
        return answers

    def ask_with_negation(self, goal: Union[str, Term]) -> list[dict[str, Value]]:
        """Answer ``positive, not(view(...))`` via a NOT IN complement."""
        from ..extensions.negation import translate_with_negation

        if isinstance(goal, str):
            goal = parse_goal(goal)
        targets = [v for v in variables_of(goal) if not v.is_anonymous]
        with self.kb.lock.read():
            translation = translate_with_negation(
                self.metaevaluator, goal, self.constraints, targets=targets,
                options=self._simplify_options,
            )
            rows = self.database.execute(translation.query)
        names = [item.label or item.column.attribute for item in translation.query.select]
        # Targets were projected in goal-variable order by the translator.
        target_names = [
            t.name
            for t in translation.positive.target_symbols()
            if t.name in {v.name for v in targets}
        ]
        answers = []
        seen: set[tuple] = set()
        for row in rows:
            if row not in seen:
                seen.add(row)
                answers.append(dict(zip(target_names, row)))
        return answers

    def ask_stepwise(self, goal: Union[str, Term]):
        """Tuple-substitution evaluation for mixed conjunctions."""
        from ..extensions.stepwise import StepwiseEvaluator

        evaluator = StepwiseEvaluator(
            self.metaevaluator,
            self.engine,
            self.database,
            self.constraints,
            options=self._simplify_options,
        )
        # Tuple-substitution resolves through the engine (which programs
        # may mutate mid-proof): write side.
        with self.kb.lock.write():
            return evaluator.evaluate(goal)

    # -- inspection ------------------------------------------------------------------------

    def stats(self) -> dict:
        """One snapshot of every performance-relevant counter.

        Benchmarks, CI gates, and docs read this instead of poking at the
        knowledge base, plan cache, result cache, backend, and
        maintenance manager separately.  Each component contributes an
        *atomic* snapshot taken under its own lock, so no counter group
        is ever torn mid-update by a concurrent serving thread.
        """
        plan_stats = self.plans.stats.snapshot()
        cache_stats = self.cache.stats.snapshot()
        db_stats = self.database.stats.snapshot()
        phase_stats = self.compile_phases.snapshot()
        resilience = self.database.resilience.snapshot()
        resilience["breakers"] = self.database.breaker_states()
        observe = self.tracer.stats_snapshot()
        observe["hit_rates"] = {
            "plan_cache": _hit_rate(plan_stats["hits"], plan_stats["misses"]),
            "result_cache": _hit_rate(
                cache_stats["hits"], cache_stats["misses"]
            ),
        }
        return {
            "kb": {
                "generation": self.kb.generation,
                "clauses": len(self.kb),
            },
            "plan_cache": {"entries": len(self.plans), **plan_stats},
            "result_cache": {"entries": len(self.cache), **cache_stats},
            "database": db_stats,
            "compile_phases": phase_stats,
            "recursion_plans": self.recursion_plans.snapshot(),
            "materialize": self.materialize.stats_dict(),
            "resilience": resilience,
            "observe": observe,
            "cqa": self.cqa_stats.snapshot(),
        }

    def traces(self) -> list:
        """The resident trace spans as JSON-serializable dicts.

        One record per traced ``ask``/``ask_many`` goal (batched groups
        expand to their members), oldest resident first; at most the
        ring's ``trace_ring`` most recent goals are resident.
        """
        return self.tracer.traces()

    def slow_queries(self) -> list:
        """Full-detail records for asks over the slow-query threshold.

        Each record carries everything :meth:`traces` has plus the
        backend's ``EXPLAIN QUERY PLAN`` for the span's last statement,
        captured on demand when the threshold triggered.
        """
        return self.tracer.slow_queries()

    def on_span(self, callback) -> None:
        """Stream completed span dicts to an external sink (opt-in)."""
        self.tracer.on_span(callback)

    def export_trace(self, path) -> int:
        """Write resident traces plus observe metrics to ``path`` (JSON).

        Returns the number of trace records written.
        """
        return self.tracer.export(path, stats=self.stats()["observe"])

    def explain(self, goal: Union[str, Term]) -> TranslationTrace:
        """The full translation trace for an external goal (no execution)."""
        if isinstance(goal, str):
            goal = parse_goal(goal)
        targets = [v for v in variables_of(goal) if not v.is_anonymous]
        # Read-locked like every other reader of the knowledge base: a
        # concurrent consult must not change the clauses mid-unfolding.
        with self.kb.lock.read():
            predicate = self.metaevaluator.metaevaluate(goal, targets=targets)
        result = simplify(predicate, self.constraints, self._simplify_options)
        if result.is_empty:
            from ..sql.ast import empty_query

            sql = empty_query()
        else:
            sql = translate(result.predicate, distinct=True)
        return TranslationTrace(
            goal=goal, dbcl=predicate, simplification=result, sql=sql
        )

    def close(self) -> None:
        self.database.close()

    def __enter__(self) -> "PrologDbSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
