"""Self-tests of the benchmark's own machinery.

Run from the repository root::

    python3 perfbench/selftest.py

1. **Tracer**: the outside-in wrappers reach every module that imported
   an entry point by name (``coupling/session.py`` imports
   ``parse_goal``, ``goal_shape``, ``simplify`` and ``translate``), real
   spans yield a nonzero ``trace.attributed_share``, and ``restore()``
   puts every original object back.
2. **Count determinism**: with one client and a fixed seed, the counter
   deltas over the measured phase's fixed prefix (cache hits and misses,
   plan invalidations, statements, commits, deltas, CQA probes and
   repairs) and the ratios derived from them repeat exactly between two
   separate runs of ``run.py`` — so later changes can cite them as counts.

Exit status 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Per-layer metrics derived only from counters (no clock involved).
COUNT_METRICS = (
    "coupling.result_cache.hit_ratio",
    "coupling.plan_cache.hit_ratio",
    "coupling.plan_cache.invalidations_per_write",
    "coupling.batch.goals_per_statement",
    "optimize.rows_removed_per_compile",
    "dbms.statements_per_op",
    "dbms.rows_per_answer",
    "dbms.commits_per_write",
    "materialize.deltas_per_write",
    "materialize.refreshes",
    "cqa.fast_path_ratio",
    "cqa.repairs_per_consistent_ask",
    "resilience.retries_per_kop",
)


def check_tracer() -> list[str]:
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import repro.coupling.session as session_module
    from repro.coupling import PrologDbSession
    from repro.dbms import generate_org
    from repro.schema import ALL_VIEWS_SOURCE

    from layertrace import OPERATION, LayerTracer

    names = ("parse_goal", "goal_shape", "simplify", "translate")
    originals = {name: getattr(session_module, name) for name in names}
    method = PrologDbSession.__dict__["ask"]
    problems = []
    tracer = LayerTracer()
    tracer.install()
    try:
        for name in names:
            if getattr(getattr(session_module, name), "__layertrace__", None) is not tracer:
                problems.append(f"session.{name} is not wrapped where it is looked up")
        session = PrologDbSession()
        session.load_org(generate_org(depth=2, branching=2, staff_per_dept=3, seed=1))
        session.consult(ALL_VIEWS_SOURCE)
        tracer.active = True
        for op_id, goal in enumerate((
            "works_dir_for(X, 'emp00004')",
            "works_dir_for(X, 'emp00005')",
            "same_manager(X, 'emp00004')",
            "works_for(X, 'emp00001')",
        )):
            with tracer.operation(op_id):
                session.ask(goal)
        tracer.active = False
        session.close()
        self_times = tracer.self_times()
        for layer in ("prolog.parse", "coupling.shape", "metaevaluate",
                      "optimize", "sql", "dbms.execute"):
            if not self_times.get(layer):
                problems.append(f"no self time recorded for layer {layer}")
        _count, total = tracer.span_totals(OPERATION)
        attributed = total - self_times.get(OPERATION, 0.0) - self_times.get(
            "coupling.session", 0.0)
        share = attributed / total if total else 0.0
        if not 0.0 < share < 1.0:
            problems.append(f"attributed share {share} is not inside (0, 1)")
        covered = sum(self_times.values())
        if abs(covered - total) > 1e-6 * max(1.0, total):
            problems.append(
                f"self times sum to {covered}, operation spans to {total}"
            )
    finally:
        tracer.restore()
    for name in names:
        if getattr(session_module, name) is not originals[name]:
            problems.append(f"session.{name} was not restored")
    if PrologDbSession.__dict__["ask"] is not method:
        problems.append("PrologDbSession.ask was not restored")
    if not tracer.originals_restored():
        problems.append("a wrapper is still reachable after restore()")
    return problems


def _counted_run(workload: str, seed: int) -> tuple[str, dict]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    if out.returncode != 0:
        raise RuntimeError(f"{workload} run failed: {out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    counts = next(line for line in lines if line.startswith("counts over"))
    metrics = json.loads(lines[-1])["metrics"]
    return counts, {name: metrics[name]["value"] for name in COUNT_METRICS}


def check_counts(seed: int = 7) -> list[str]:
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    problems = []
    for workload in WORKLOADS:
        first = _counted_run(workload, seed)
        second = _counted_run(workload, seed)
        if first != second:
            problems.append(
                f"{workload}: counts differ between two seed-{seed} runs:\n"
                f"  {first}\n  {second}"
            )
        else:
            print(f"{workload}: {first[0]}")
    return problems


def main() -> int:
    problems = check_tracer()
    print(f"tracer: {'ok' if not problems else 'FAILED'}")
    count_problems = check_counts()
    print(f"count determinism: {'ok' if not count_problems else 'FAILED'}")
    problems += count_problems
    for problem in problems:
        print("FAIL " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
