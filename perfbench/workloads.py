"""The benchmark's seeded, single-client, closed-loop workloads.

Each workload builds its inputs from the seed alone (the library only
sees the generated facts and goals), sets a session up, and then yields
an endless stream of operations.  An operation is ``(klass, kind,
payload)``: ``klass`` is the latency class it reports under (``ask``,
``probe``, ``batch``, ``consistent``, ``write``, ``cold``) and ``kind``
the library call it makes; a ``sequence`` operation's payload is a list
of such calls, run in order.

Why each workload exists is recorded in ``perfbench/README.md``.
"""

from __future__ import annotations

import bisect
import os
import random
import shutil
import tempfile
import time

from repro.coupling import PrologDbSession
from repro.dbms import ExternalDatabase, generate_org
from repro.prolog.reader import parse_goal
from repro.schema import (
    ALL_VIEWS_SOURCE,
    SAME_MANAGER_SOURCE,
    WORKS_DIR_FOR_SOURCE,
    empdep_constraints,
    empdep_schema,
)

from reference import Store, answer_set, expected

#: Latency classes in report order.
CLASSES = ("ask", "probe", "batch", "consistent", "write", "cold")

#: Salary thresholds for the optional comparison literal (``sal`` is
#: bounded to [10000, 90000] by the schema's value bound).
THRESHOLDS = tuple(range(20000, 85000, 5000))


class Zipf:
    """Zipf(s=1) ranks over a seeded permutation of ``items``."""

    def __init__(self, items, rng: random.Random):
        self.items = list(items)
        rng.shuffle(self.items)
        total = 0.0
        self.cumulative = []
        for rank in range(len(self.items)):
            total += 1.0 / (rank + 1)
            self.cumulative.append(total)
        self.total = total

    def draw(self, rng: random.Random):
        return self.items[bisect.bisect_left(self.cumulative, rng.random() * self.total)]


def _non_managers(org):
    managers = {d.mgr for d in org.departments}
    return [e for e in org.employees if e.eno not in managers]


class Context:
    """A set-up workload: the session plus reference state."""

    def __init__(self, session, store: Store):
        self.session = session
        self.store = store

    def close(self) -> None:
        self.session.close()


def _timed(phases: dict, name: str, start: float) -> float:
    now = time.perf_counter()
    phases[name] = phases.get(name, 0.0) + (now - start)
    return now


class Workload:
    """Base class: seeded data, timed set-up, an endless op stream."""

    name = ""
    #: Operations over which counter deltas are taken and after which
    #: ``peak_rss_mb`` is read (a fixed prefix of the measured phase, so
    #: counts repeat exactly for a fixed seed; the run goes on at least
    #: this long).
    count_ops = 1000
    #: Sampled operations whose answers are checked against a reference.
    check_ops = 40
    #: Set-ups per run (``setup_s`` is their median); cheap set-ups
    #: repeat more often so their median is steady.
    setup_repeats = 5
    #: Whether the traced run ends with a :class:`ServingSegment`.
    serving_segment = False

    def __init__(self, seed: int):
        self.seed = seed
        self.org = self.make_org(seed)

    def make_org(self, seed: int):
        raise NotImplementedError

    def setup(self, phases: dict) -> Context:
        raise NotImplementedError

    def operations(self, ctx: Context):
        raise NotImplementedError

    # -- execution ----------------------------------------------------------

    def execute(self, ctx: Context, op, timings: list):
        """Run one operation; append ``(klass, seconds)`` per library call.

        A ``sequence`` operation (one ``write_churn`` cycle) runs its
        calls in order and returns ``[(call, result, store)]``, the store
        being the reference state each call saw.
        """
        klass, kind, payload = op
        if kind == "sequence":
            done = []
            for call in payload:
                done.append((call, self.execute(ctx, call, timings), ctx.store))
            return done
        session = ctx.session
        begin = time.perf_counter()
        if kind == "ask":
            result = session.ask(payload)
        elif kind == "ask_many":
            result = session.ask_many(payload)
        elif kind == "ask_consistent":
            result = session.ask_consistent(payload)
        elif kind == "assert":
            session.assert_fact(payload[0], *payload[1])
            result = None
        elif kind == "retract":
            if not session.retract_fact(payload[0], *payload[1]):
                raise AssertionError(f"retract of a present fact failed: {payload}")
            result = None
        else:
            raise ValueError(f"unknown operation kind {kind!r}")
        timings.append((klass, time.perf_counter() - begin))
        if kind in ("assert", "retract"):
            ctx.store = ctx.store.with_change(
                payload[0], payload[1], insert=kind == "assert"
            )
        return result

    @staticmethod
    def reads(op, result) -> list:
        """``[(kind, goal, answers)]`` for every read an operation made."""
        _klass, kind, payload = op
        if kind == "sequence":
            found = []
            for call, call_result, _store in result:
                found.extend(Workload.reads(call, call_result))
            return found
        if kind == "ask_many":
            return [(kind, goal, answers) for goal, answers in zip(payload, result)]
        if result is None:
            return []
        return [(kind, payload, result)]

    def snapshot(self, ctx: Context, op, result) -> list:
        """``[(kind, goal, answers, state)]`` for a later reference check."""
        _klass, kind, _payload = op
        if kind == "sequence":
            return [
                (call_kind, goal, answers, store)
                for call, call_result, store in result
                for call_kind, goal, answers in self.reads(call, call_result)
            ]
        return [
            (read_kind, goal, answers, ctx.store)
            for read_kind, goal, answers in self.reads(op, result)
        ]

    def check(self, sample) -> list[str]:
        """Mismatch descriptions for one sampled operation (empty if right)."""
        problems = []
        for kind, goal, answers, store in sample:
            want = expected(store, kind, goal)
            got = answer_set(answers)
            if got != want:
                problems.append(
                    f"{self.name}: {kind} {goal} gave {len(got)} answers, "
                    f"reference {len(want)} (missing {sorted(map(sorted, want - got))[:3]}, "
                    f"extra {sorted(map(sorted, got - want))[:3]})"
                )
        return problems

    def counters(self, ctx: Context) -> dict:
        """Flat counter snapshot of the in-process session."""
        stats = ctx.session.stats()
        plan = stats["plan_cache"]
        cache = stats["result_cache"]
        db = stats["database"]
        mat = stats["materialize"]
        cqa = stats["cqa"]
        res = stats["resilience"]
        return {
            "plan_hits": plan["hits"],
            "plan_misses": plan["misses"],
            "plan_invalidations": plan["invalidations"],
            "batched_asks": plan["batched_asks"],
            "batch_executions": plan["batch_executions"] + plan["recursive_batches"],
            "result_hits": cache["hits"],
            "result_misses": cache["misses"],
            "statements": db["queries_executed"],
            "rows_fetched": db["rows_fetched"],
            "commits": db["commits"],
            "deltas_applied": mat.get("deltas_applied", 0),
            "refreshes": mat.get("refreshes", 0),
            "cqa_probes": cqa["probes"],
            "cqa_fast_paths": cqa["clean_fast_paths"],
            "cqa_rewritten": cqa["rewritten_asks"],
            "cqa_fallbacks": cqa["fallback_asks"],
            "repairs_enumerated": cqa["repairs_enumerated"],
            "statement_retries": res.get("retries", 0),
            "ask_retries": res.get("ask_retries", 0),
            "compiles": stats["compile_phases"].get("cold_compilations", 0),
        }


def _store_of(org) -> Store:
    return Store(
        [e.as_row() for e in org.employees],
        [d.as_row() for d in org.departments],
    )


def _session(path: str = ":memory:", cache_policy=None) -> PrologDbSession:
    schema = empdep_schema()
    constraints = empdep_constraints(schema)
    database = ExternalDatabase(schema, path=path, constraints=constraints)
    return PrologDbSession(
        schema=schema, constraints=constraints, database=database,
        cache_policy=cache_policy,
    )


# -- warm_reads ---------------------------------------------------------------


class WarmReads(Workload):
    """Read-only steady state: the paper's compile-once path."""

    name = "warm_reads"
    count_ops = 15000
    #: The traced run also measures the serving layer (see ServingSegment).
    serving_segment = True

    FLAT = (
        "works_dir_for(X, {c})",
        "same_manager(X, {c})",
        "empl(E, {c}, S, D), dept(D, F, M)",
        "dept(D, F, M), empl(M, {c}, S, D2)",
        "empl(E, {c}, S, D), empl(E2, N2, S2, D)",
    )
    CONSISTENT = (
        "empl(E, {c}, S, D), dept(D, F, M)",
        "works_dir_for(X, {c})",
    )
    BATCH = 32

    def make_org(self, seed):
        # 364 departments x 6 staff = 2184 employees.
        return generate_org(depth=5, branching=3, staff_per_dept=6, seed=seed)

    def setup(self, phases: dict) -> Context:
        start = time.perf_counter()
        session = _session()
        session.load_org(self.org)
        start = _timed(phases, "load", start)
        session.consult(ALL_VIEWS_SOURCE)
        start = _timed(phases, "consult", start)
        names = [e.nam for e in self.org.employees]
        # Interval labeling is built by the first recursive probe.
        session.ask(f"works_for('{names[0]}', Y)")
        start = _timed(phases, "interval_build", start)
        for template in self.FLAT:
            for name in names[1:3]:
                session.ask(template.format(c=f"'{name}'"))
        for template in self.CONSISTENT:
            session.ask_consistent(template.format(c=f"'{names[3]}'"))
        session.ask(f"works_for(X, '{names[4]}')")
        session.ask_many([f"works_dir_for(X, '{n}')" for n in names[5:5 + self.BATCH]])
        _timed(phases, "warm", start)
        return Context(session, _store_of(self.org))

    def operations(self, ctx: Context):
        rng = random.Random(f"{self.seed}:warm_reads:ops")
        names = [e.nam for e in self.org.employees]
        zipf = Zipf(names, random.Random(f"{self.seed}:warm_reads:zipf"))
        while True:
            roll = rng.random()
            if roll < 0.70:
                template = rng.choice(self.FLAT)
                text = template.format(c=f"'{zipf.draw(rng)}'")
                goal = text if rng.random() < 0.5 else parse_goal(text)
                yield ("ask", "ask", goal)
            elif roll < 0.80:
                name = rng.choice(names)
                text = (
                    f"works_for('{name}', Y)" if rng.random() < 0.5
                    else f"works_for(X, '{name}')"
                )
                yield ("probe", "ask", text)
            elif roll < 0.90:
                yield ("batch", "ask_many", [
                    f"works_dir_for(X, '{zipf.draw(rng)}')" for _ in range(self.BATCH)
                ])
            else:
                template = rng.choice(self.CONSISTENT)
                yield ("consistent", "ask_consistent",
                       template.format(c=f"'{zipf.draw(rng)}'"))


# -- write_churn --------------------------------------------------------------


class WriteChurn(Workload):
    """Cycles of one write and four reads over maintained views.

    One operation is a whole cycle: its latency is the cycle's, while
    each call inside it also reports under its own class.
    """

    name = "write_churn"
    count_ops = 1000
    check_ops = 12
    setup_repeats = 15

    def make_org(self, seed):
        # 121 departments x 6 staff = 726 employees.
        return generate_org(depth=4, branching=3, staff_per_dept=6, seed=seed)

    def setup(self, phases: dict) -> Context:
        start = time.perf_counter()
        session = _session()
        session.load_org(self.org)
        start = _timed(phases, "load", start)
        session.consult(ALL_VIEWS_SOURCE)
        start = _timed(phases, "consult", start)
        session.materialize.view("works_dir_for(X, Y)")
        session.materialize.view("same_manager(X, Y)")
        start = _timed(phases, "views", start)
        names = [e.nam for e in self.org.employees]
        session.ask(f"works_for('{names[0]}', Y)")
        start = _timed(phases, "interval_build", start)
        session.ask(f"works_for(X, '{names[1]}')")
        session.ask(f"empl(E, '{names[2]}', S, D), dept(D, F, M)")
        session.ask_consistent(f"empl(E, '{names[3]}', S, D), dept(D, F, M)")
        _timed(phases, "warm", start)
        return Context(session, _store_of(self.org))

    def operations(self, ctx: Context):
        rng = random.Random(f"{self.seed}:write_churn:ops")
        org = self.org
        names = [e.nam for e in org.employees]
        zipf = Zipf(names, random.Random(f"{self.seed}:write_churn:zipf"))
        dnos = [d.dno for d in org.departments]
        # Fires and duplicates only touch non-managers, so every dept.mgr
        # keeps its empl row (the declared refint stays true).
        staff = {e.eno: e.as_row() for e in _non_managers(org)}
        next_eno = max(e.eno for e in org.employees) + 1
        hired = 0
        dup = None
        step = 0
        while True:
            phase = step % 4
            step += 1
            if phase == 0:
                row = (next_eno, f"hire{hired:05d}", rng.randrange(10000, 90001, 500),
                       rng.choice(dnos))
                next_eno += 1
                hired += 1
                staff[row[0]] = row
                write = ("write", "assert", ("empl", row))
            elif phase == 1:
                eno = rng.choice(sorted(staff))
                _eno, _nam, sal, dno = staff[eno]
                dup = (eno, f"dup{step:05d}", sal, dno)
                write = ("write", "assert", ("empl", dup))
            elif phase == 2:
                candidates = sorted(e for e in staff if dup is None or e != dup[0])
                eno = rng.choice(candidates)
                write = ("write", "retract", ("empl", staff.pop(eno)))
            else:
                write = ("write", "retract", ("empl", dup))
                dup = None
            # The consistent shape and the probe direction follow the step,
            # so every four cycles have the same composition.
            probe = rng.choice(names)
            if step % 2:
                consistent = f"empl(E, '{zipf.draw(rng)}', S, D), dept(D, F, M)"
            else:
                # A self-join: outside the rewritable class, so a dirty
                # store enumerates repairs.
                consistent = (
                    f"empl(E, '{zipf.draw(rng)}', S, D), dept(D, F, M), "
                    "empl(M, N2, S2, D2)"
                )
            yield ("cycle", "sequence", [
                write,
                ("ask", "ask", f"empl(E, '{zipf.draw(rng)}', S, D), dept(D, F, M)"),
                ("probe", "ask", (
                    f"works_for('{probe}', Y)" if step // 2 % 2
                    else f"works_for(X, '{probe}')"
                )),
                ("consistent", "ask_consistent", consistent),
                ("ask", "ask", f"dept(D, F, M), empl(M, '{zipf.draw(rng)}', S, D2)"),
            ])


# -- cold_compile -------------------------------------------------------------

#: Literal templates: functor and the value domain of each argument.
LITERALS = (
    ("empl", ("eno", "nam", "sal", "dno")),
    ("dept", ("dno", "fct", "eno")),
    ("works_dir_for", ("nam", "nam")),
    ("same_manager", ("nam", "nam")),
)
#: Domains a constant may bind to make a literal selective.
SELECTIVE = ("eno", "nam", "dno")


class ColdCompile(Workload):
    """Every operation asks a goal shape drawn fresh from a generator."""

    name = "cold_compile"
    count_ops = 5000
    setup_repeats = 40

    def make_org(self, seed):
        return generate_org(depth=4, branching=3, staff_per_dept=6, seed=seed)

    def setup(self, phases: dict) -> Context:
        start = time.perf_counter()
        session = _session()
        session.load_org(self.org)
        start = _timed(phases, "load", start)
        session.consult(WORKS_DIR_FOR_SOURCE + SAME_MANAGER_SOURCE)
        start = _timed(phases, "consult", start)
        # One compile of each literal warms the statistics service and
        # the call graph, which every later cold ask reads.
        names = [e.nam for e in self.org.employees]
        session.ask(f"works_dir_for(X, '{names[0]}')")
        session.ask(f"same_manager(X, '{names[1]}')")
        session.ask(f"empl(E, '{names[2]}', S, D), dept(D, F, M)")
        _timed(phases, "warm", start)
        return Context(session, _store_of(self.org))

    def _constants(self):
        org = self.org
        return {
            "eno": [e.eno for e in org.employees],
            "nam": [f"'{e.nam}'" for e in org.employees],
            "dno": [d.dno for d in org.departments],
            "fct": sorted({f"'{d.fct}'" for d in org.departments}),
        }

    def draw_goal(self, rng: random.Random, constants) -> tuple[str, tuple]:
        """One connected, selective goal and its shape key."""
        while True:
            counter = [0]
            variables: list[tuple[str, str]] = []  # (name, domain)
            sal_vars: list[str] = []

            def fresh(domain):
                counter[0] += 1
                name = f"V{counter[0]}"
                variables.append((name, domain))
                if domain == "sal":
                    sal_vars.append(name)
                return name

            literals = []
            shape = []
            count = rng.choices((1, 2, 3), weights=(1, 4, 5))[0]
            for position in range(count):
                functor, domains = rng.choice(LITERALS)
                args = []
                key_args = []
                if position == 0:
                    bound = rng.choice(
                        [i for i, d in enumerate(domains) if d in SELECTIVE]
                    )
                    joined = None
                else:
                    bound = None
                    options = [
                        (i, name)
                        for i, d in enumerate(domains)
                        for name, vd in variables
                        if vd == d
                    ]
                    if not options:
                        break
                    joined = dict([rng.choice(options)])
                    if len(options) > 1 and rng.random() < 0.3:
                        extra = rng.choice(options)
                        if extra[0] not in joined and extra[1] not in joined.values():
                            joined[extra[0]] = extra[1]
                for i, domain in enumerate(domains):
                    if joined is not None and i in joined:
                        args.append(joined[i])
                        key_args.append(joined[i])
                    elif i == bound or (
                        domain in constants and rng.random() < 0.25
                    ):
                        args.append(str(rng.choice(constants[domain])))
                        key_args.append("?")
                    elif rng.random() < 0.3:
                        args.append("_")
                        key_args.append("_")
                    else:
                        name = fresh(domain)
                        args.append(name)
                        key_args.append(name)
                literals.append(f"{functor}({', '.join(args)})")
                shape.append((functor, tuple(key_args)))
            else:
                for _ in range(2):
                    if sal_vars and rng.random() < 0.45:
                        comparison = rng.choice(("less", "greater", "leq", "geq"))
                        var = rng.choice(sal_vars)
                        literals.append(
                            f"{comparison}({var}, {rng.choice(THRESHOLDS)})"
                        )
                        shape.append((comparison, (var, "?")))
                if not any(d != "sal" for _n, d in variables):
                    continue  # nothing to answer with
                return ", ".join(literals), tuple(shape)

    def operations(self, ctx: Context):
        rng = random.Random(f"{self.seed}:cold_compile:ops")
        constants = self._constants()
        seen: set = set()
        while True:
            # Redraw until the shape is new; should the generator's space
            # run dry, a repeated shape is asked and reported as a warm ask.
            for _ in range(50):
                goal, shape = self.draw_goal(rng, constants)
                if shape not in seen:
                    break
            klass = "ask" if shape in seen else "cold"
            seen.add(shape)
            yield (klass, "ask", goal)


# -- serving segment ----------------------------------------------------------


class ServingSegment:
    """A fixed number of round trips through a two-worker serving tier.

    Part of ``warm_reads``' traced run, run after its measured phase with
    no timing wrappers installed: ``warm_reads``' organisation and first
    three flat templates with Zipf-skewed constants, asked through a
    ``ServingTier`` over a file-backed WAL store, one request
    outstanding.  90% are ``tier.ask`` and 10% ``tier.ask_many`` batches
    of 8, and every ``WRITE_EVERY`` reads a hire is asserted or retracted
    again.  Each answer of a sampled operation is compared, before the
    next write, with a serial ask on a separate in-process session over
    the same store file.
    """

    WORKERS = 2
    OPS = 1500
    BATCH = 8
    WRITE_EVERY = 100
    CHECK_OPS = 40

    def __init__(self, workload: "WarmReads", work_dir: str):
        self.org = workload.org
        self.seed = workload.seed
        self.flat = workload.FLAT[:3]
        self.work_dir = work_dir

    def operations(self):
        rng = random.Random(f"{self.seed}:serving:ops")
        names = [e.nam for e in self.org.employees]
        zipf = Zipf(names, random.Random(f"{self.seed}:serving:zipf"))
        dnos = [d.dno for d in self.org.departments]
        next_eno = max(e.eno for e in self.org.employees) + 1
        pending = None
        reads = 0
        while True:
            reads += 1
            if reads % self.WRITE_EVERY == 0:
                if pending is None:
                    pending = (next_eno, f"hire{next_eno:05d}",
                               rng.randrange(10000, 90001, 500), rng.choice(dnos))
                    next_eno += 1
                    yield ("write", "assert", ("empl", pending))
                else:
                    yield ("write", "retract", ("empl", pending))
                    pending = None
            if rng.random() < 0.9:
                template = rng.choice(self.flat)
                yield ("ask", "ask", template.format(c=f"'{zipf.draw(rng)}'"))
            else:
                yield ("batch", "ask_many", [
                    rng.choice(self.flat).format(c=f"'{zipf.draw(rng)}'")
                    for _ in range(self.BATCH)
                ])

    def run(self) -> dict:
        """Set the tier up, run :attr:`OPS` operations, check, tear down.

        Returns per-class round-trip seconds, the workers' own span
        records, the tier's serving counters, failures and mismatches.
        """
        from repro.coupling.global_opt import CachePolicy
        from repro.serving import ServingTier

        owner_dir = tempfile.mkdtemp(prefix="tier-", dir=self.work_dir)
        store_path = os.path.join(owner_dir, "store.db")
        session = _session(path=store_path)
        tier = reference = None
        timings: dict = {"ask": [], "batch": [], "write": []}
        errors: list = []
        problems: list = []
        try:
            session.load_org(self.org)
            session.consult(ALL_VIEWS_SOURCE)
            names = [e.nam for e in self.org.employees]
            warm = [t.format(c=f"'{n}'") for t in self.flat for n in names[:2]]
            tier = ServingTier(session, workers=self.WORKERS, warm_goals=warm)
            tier.wait_ready(timeout=60.0)
            for goal in warm:
                tier.ask(goal)
            # A separate session keeps the owner's counters free of
            # reference work; its result cache is off because the owner's
            # writes cannot invalidate it.
            reference = _session(path=store_path, cache_policy=CachePolicy(enabled=False))
            reference.consult(ALL_VIEWS_SOURCE)
            check_rng = random.Random(f"{self.seed}:serving:check")
            to_check = set(check_rng.sample(range(self.OPS), self.CHECK_OPS))
            operations = self.operations()
            for index in range(self.OPS):
                klass, kind, payload = next(operations)
                begin = time.perf_counter()
                try:
                    if kind == "ask":
                        result = tier.ask(payload)
                    elif kind == "ask_many":
                        result = tier.ask_many(payload)
                    elif kind == "assert":
                        result = tier.assert_fact(payload[0], *payload[1])
                    else:
                        result = tier.retract_fact(payload[0], *payload[1])
                except Exception as error:  # noqa: BLE001 - counted and reported
                    errors.append(f"tier {kind}: {type(error).__name__}: {error}")
                    continue
                timings[klass].append(time.perf_counter() - begin)
                if kind == "retract" and not result:
                    errors.append(f"tier retract of a present fact failed: {payload}")
                if index in to_check and kind in ("ask", "ask_many"):
                    goals = [payload] if kind == "ask" else payload
                    answers = [result] if kind == "ask" else result
                    for goal, got in zip(goals, answers):
                        serial = answer_set(reference.ask(goal))
                        if answer_set(got) != serial:
                            problems.append(
                                f"serving: tier {kind} {goal} differs from the serial "
                                f"in-process ask ({len(got)} vs {len(serial)} answers)"
                            )
            traces = tier.traces()
            counters = tier.stats()["serving"]
        finally:
            if tier is not None:
                tier.close()
            if reference is not None:
                reference.close()
            session.close()
            shutil.rmtree(owner_dir, ignore_errors=True)
        return {
            "timings": timings,
            "traces": traces,
            "counters": counters,
            "errors": errors,
            "problems": problems,
        }


WORKLOADS = {cls.name: cls for cls in (WarmReads, WriteChurn, ColdCompile)}
