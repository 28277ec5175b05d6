"""Outside-in layer tracer: timing wrappers around the library's public entry points.

The benchmark measures the library from outside.  For a traced run it
wraps each public function listed in :data:`LAYERS` with a timer that
records one span (layer name, start, end, parent span, operation id),
then restores every original when the run ends.  Nothing under ``src/``
knows it is being traced.

Functions are patched where they are *looked up*: ``coupling/session.py``
imports ``goal_shape``, ``parse_goal``, ``simplify`` and ``translate`` by
name (``certain_answers`` even under an alias), so every loaded
``repro`` module namespace holding the original object gets the wrapper,
not only the defining module.  Methods are patched on their class.

Spans are kept in memory as tuples and reduced once, at the end, to
per-layer self time: a span's duration minus the part of it covered by
its child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict

#: layer name -> entry points ``(module, attribute path[, observed
#: attribute])``.  A dotted path names a method on a class of that
#: module; an observed attribute of each return value is summed into
#: :attr:`LayerTracer.observed` while :attr:`LayerTracer.observing` is
#: set, whether or not spans are being recorded.
LAYERS = {
    "prolog.parse": [("repro.prolog.reader", "parse_goal")],
    "prolog.kb_write": [
        ("repro.prolog.knowledge_base", "KnowledgeBase.assert_fact"),
        ("repro.prolog.knowledge_base", "KnowledgeBase.retract"),
    ],
    "coupling.session": [
        ("repro.coupling.session", "PrologDbSession.ask"),
        ("repro.coupling.session", "PrologDbSession.ask_many"),
        ("repro.coupling.session", "PrologDbSession.ask_consistent"),
        ("repro.coupling.session", "PrologDbSession.assert_fact"),
        ("repro.coupling.session", "PrologDbSession.retract_fact"),
    ],
    "coupling.shape": [("repro.coupling.global_opt", "goal_shape")],
    "coupling.plan_lookup": [
        ("repro.coupling.global_opt", "PlanCache.sync"),
        ("repro.coupling.global_opt", "PlanCache.lookup"),
        ("repro.coupling.global_opt", "PlanCache.entry_for"),
    ],
    "coupling.bind": [("repro.coupling.global_opt", "CompiledPlan.bind")],
    "coupling.result_cache": [
        ("repro.coupling.global_opt", "ResultCache.lookup"),
        ("repro.coupling.global_opt", "ResultCache.store"),
        ("repro.coupling.global_opt", "ResultCache.invalidate_relation"),
    ],
    "coupling.recursion": [
        ("repro.coupling.recursion_exec", "TransitiveClosure.plan"),
        ("repro.coupling.recursion_exec", "TransitiveClosure.solve"),
    ],
    "metaevaluate": [
        ("repro.coupling.global_opt", "classify_conjuncts"),
        ("repro.coupling.global_opt", "plan_goal"),
        ("repro.metaevaluate.translator", "Metaevaluator.collect_branches"),
        ("repro.metaevaluate.translator", "Metaevaluator.branch_to_dbcl"),
    ],
    "optimize": [
        # Observed: each SimplificationResult's tableau rows removed.
        ("repro.optimize.pipeline", "simplify", "rows_removed"),
        ("repro.optimize.costs", "order_rows"),
    ],
    "sql": [
        ("repro.sql.translate", "translate"),
        ("repro.dbms.sqlite_backend", "ExternalDatabase.prepare"),
        ("repro.dbms.sqlite_backend", "ExternalDatabase.render"),
    ],
    "dbms.execute": [
        ("repro.dbms.sqlite_backend", "ExternalDatabase.execute_prepared"),
        ("repro.dbms.sqlite_backend", "ExternalDatabase.execute"),
    ],
    "dbms.write": [
        ("repro.dbms.sqlite_backend", "ExternalDatabase.insert_rows"),
        ("repro.dbms.sqlite_backend", "ExternalDatabase.delete_row"),
        ("repro.dbms.sqlite_backend", "ExternalDatabase.apply_materialized_delta"),
    ],
    "dbms.merge": [("repro.dbms.merge", "SegmentMerger.materialise_internal")],
    "materialize.intervals": [
        ("repro.materialize.intervals", "IntervalIndex.ensure_fresh"),
    ],
    "materialize": [
        ("repro.materialize.manager", "MaterializeManager.view"),
        ("repro.materialize.manager", "MaterializeManager.answer"),
        ("repro.materialize.manager", "MaterializeManager.try_answer"),
        ("repro.materialize.manager", "MaterializeManager.external_delete"),
        ("repro.materialize.manager", "MaterializeManager.heal_all"),
        ("repro.materialize.manager", "MaterializeManager.on_load"),
        ("repro.materialize.manager", "MaterializeManager.on_consult"),
        # The knowledge-base change listener: bound at session creation,
        # so the tracer must be installed before sessions are built.
        ("repro.materialize.manager", "MaterializeManager._on_kb_event"),
    ],
    "cqa": [
        ("repro.cqa.detector", "ViolationDetector.violations"),
        ("repro.cqa.detector", "ViolationDetector.dirty_relations"),
        ("repro.cqa.rewrite", "atoms_of"),
        ("repro.cqa.rewrite", "peel_order"),
        ("repro.cqa.repairs", "split_blocks"),
        ("repro.cqa.repairs", "certain_answers"),
    ],
    "observe": [
        ("repro.observe.tracer", "Tracer.begin"),
        ("repro.observe.tracer", "Tracer.commit"),
        ("repro.observe.tracer", "Tracer.commit_group"),
    ],
}

#: The span name the benchmark opens around each operation.
OPERATION = "op"


class LayerTracer:
    """Records nested spans while :attr:`active`; inert otherwise.

    One client thread drives the library, so a plain list is the span
    stack.  Wrappers called from other threads are timed only when they
    run on the driving thread.
    """

    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.active = False
        #: Observed attributes are summed only while this is set (the
        #: runner sets it over the fixed prefix of operations whose
        #: counts must repeat exactly, traced block or not).
        self.observing = False
        self.spans: list[tuple] = []  # (name, start, end, parent, op)
        self._stack: list[int] = []
        self._op = -1
        self._patches: list[tuple] = []  # (namespace object, attr, original)
        self._thread = None
        #: (layer, observed attribute) -> [calls, summed value]
        self.observed: dict[tuple, list] = defaultdict(lambda: [0, 0])

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point, wherever a ``repro`` module looks it up."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._thread = threading.get_ident()
        for layer, targets in self.layers.items():
            for module_name, path, *observe in targets:
                observe = observe[0] if observe else None
                module = importlib.import_module(module_name)
                if "." in path:
                    class_name, method = path.split(".")
                    owner = getattr(module, class_name)
                    original = owner.__dict__[method]
                    self._patch(owner, method, original, layer, observe)
                    continue
                original = getattr(module, path)
                for loaded in list(sys.modules.values()):
                    name = getattr(loaded, "__name__", "")
                    if not (name == "repro" or name.startswith("repro.")):
                        continue
                    for attr, value in list(vars(loaded).items()):
                        if value is original:
                            self._patch(loaded, attr, original, layer, observe)

    def _patch(self, owner, attr: str, original, layer: str, observe) -> None:
        setattr(owner, attr, self._wrap(original, layer, observe))
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every original back (in reverse order of patching)."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.active = self.observing = False

    def originals_restored(self) -> bool:
        """True when no wrapper of this tracer is reachable any more."""
        for layer, targets in self.layers.items():
            for module_name, path, *_observe in targets:
                module = importlib.import_module(module_name)
                if "." in path:
                    class_name, method = path.split(".")
                    value = getattr(module, class_name).__dict__[method]
                else:
                    value = getattr(module, path)
                if getattr(value, "__layertrace__", None) is self:
                    return False
        for loaded in list(sys.modules.values()):
            name = getattr(loaded, "__name__", "")
            if name == "repro" or name.startswith("repro."):
                for value in vars(loaded).values():
                    if getattr(value, "__layertrace__", None) is self:
                        return False
        return True

    def _wrap(self, function, layer: str, observe=None):
        tracer = self
        clock = time.perf_counter
        spans = self.spans
        stack = self._stack
        get_ident = threading.get_ident

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not tracer.active or get_ident() != tracer._thread:
                return function(*args, **kwargs)
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, start, end, parent, tracer._op)

        wrapper = traced
        if observe is not None:
            tally = self.observed[(layer, observe)]

            @functools.wraps(function)
            def wrapper(*args, **kwargs):
                result = traced(*args, **kwargs)
                if tracer.observing and get_ident() == tracer._thread:
                    tally[0] += 1
                    tally[1] += getattr(result, observe)
                return result

        wrapper.__layertrace__ = self
        return wrapper

    # -- operations -----------------------------------------------------------

    def operation(self, op_id: int):
        """Context manager: one benchmark operation as the root span."""
        return _Operation(self, op_id)

    # -- reduction ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name, over every recorded span.

        Self time is a span's duration minus the union of its direct
        children's intervals (children of a synchronous call nest and
        do not overlap, but the union is taken anyway).
        """
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                children[span[3]].append((span[1], span[2]))
        totals: dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, _parent, _op = span
            covered = 0.0
            cursor = start
            for child_start, child_end in sorted(children.get(index, ())):
                lo = max(child_start, cursor)
                if child_end > lo:
                    covered += child_end - lo
                    cursor = child_end
            totals[name] += (end - start) - covered
        return dict(totals)

    def span_totals(self, name: str) -> tuple[int, float]:
        """(count, summed duration) of the spans with this name."""
        count = 0
        total = 0.0
        for span in self.spans:
            if span is not None and span[0] == name:
                count += 1
                total += span[2] - span[1]
        return count, total

    def dump(self, path) -> int:
        """Write the recorded spans as gzip-compressed JSON lines.

        Returns how many spans were written.
        """
        import gzip
        import json

        written = 0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as sink:
            for index, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, op = span
                sink.write(
                    json.dumps(
                        {"id": index, "name": name, "start": start,
                         "end": end, "parent": parent, "op": op}
                    )
                    + "\n"
                )
                written += 1
        return written


class _Operation:
    __slots__ = ("tracer", "op_id", "index", "start")

    def __init__(self, tracer: LayerTracer, op_id: int):
        self.tracer = tracer
        self.op_id = op_id

    def __enter__(self):
        tracer = self.tracer
        tracer._op = self.op_id
        self.index = len(tracer.spans)
        tracer.spans.append(None)
        tracer._stack.append(self.index)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        end = time.perf_counter()
        tracer = self.tracer
        tracer._stack.pop()
        tracer.spans[self.index] = (OPERATION, self.start, end, -1, self.op_id)
        tracer._op = -1
        return False
