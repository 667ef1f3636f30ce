"""The C&B optimizer façade: chase, then backchase under a chosen strategy.

:class:`CBOptimizer` glues the pieces together:

* build the constraint set from a :class:`~repro.schema.catalog.Catalog` (or
  accept an explicit list),
* chase the input query into the universal plan,
* enumerate plans with one of the three strategies evaluated in the paper:
  the full backchase (``"fb"``), on-line query fragmentation (``"oqf"``) or
  off-line constraint stratification (``"ocs"``),
* optionally rank the plans with a cost model and pick the best one.

Every backchase, of the whole universal plan or of an OQF fragment or OCS
stage, runs the one level-wise walk of :mod:`repro.chase.backchase`, which
skips every subset of a subquery that failed containment.  A single-shot
optimizer runs everything inline, on the caller's thread.  Inside the
optimizer service, the ``pool`` of the request's shard
(:class:`~repro.service.scheduler.ScheduledPool`) evaluates the ``"fb"``
walk's waves (:class:`~repro.chase.backchase.ParallelBackchase` instead of
the inline :class:`~repro.chase.backchase.FullBackchase`) and runs the
independent OQF fragments and OCS stage queries of a stratum; the checks
made and the plans found are the same either way.
Timeouts are enforced as absolute deadlines threaded through the chase phase
as well, so an optimize call never exceeds its budget by more than the
granularity of the engines' deadline checks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.chase.backchase import FullBackchase, ParallelBackchase
from repro.chase.chase import chase
from repro.chase.plans import Plan, dedupe_plans
from repro.chase.stratify import assemble_plan, decompose_query, stratify_constraints

STRATEGIES = ("fb", "oqf", "ocs")


@dataclass
class OptimizationResult:
    """Everything the experiments measure about one optimizer run.

    Attributes
    ----------
    original:
        The input query.
    strategy:
        ``"fb"``, ``"oqf"`` or ``"ocs"``.
    plans:
        The generated plans (:class:`Plan` objects).  The original query is
        always among them (possibly rewritten over the physical schema) —
        even on a timeout, when the fallback is the original query itself.
    universal_plan:
        The chased query (for ``"fb"``; fragment/stage universal plans are
        not retained).
    chase_time / backchase_time:
        Wall-clock seconds spent in each phase.  For OQF/OCS on a pool,
        ``chase_time`` sums the *per-stage* chase times across concurrent
        workers and may therefore exceed the wall-clock total;
        ``backchase_time`` (the wall-clock remainder) is clamped at zero in
        that case.
    subqueries_explored / equivalence_checks:
        Search-effort counters summed over fragments/stages.
    timed_out:
        ``True`` when a timeout interrupted the search (plan list may be
        incomplete).
    fragment_count / stratum_count:
        Decomposition sizes for OQF / OCS (0 otherwise).
    closure_queries / cache_hits / cache_misses:
        Engine-effort counters summed over the run's chases and backchases
        (benchmarks record these to track the perf trajectory across PRs).
    executor / workers:
        Where the run's parallel work ran: ``"serial"`` with one worker
        inline, or the pool's kind and worker count.
    """

    original: object
    strategy: str
    plans: list = field(default_factory=list)
    universal_plan: object | None = None
    chase_time: float = 0.0
    backchase_time: float = 0.0
    subqueries_explored: int = 0
    equivalence_checks: int = 0
    timed_out: bool = False
    fragment_count: int = 0
    stratum_count: int = 0
    closure_queries: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    executor: str = "serial"
    workers: int = 1

    @property
    def plan_count(self):
        return len(self.plans)

    @property
    def total_time(self):
        """Total optimization time (chase + backchase)."""
        return self.chase_time + self.backchase_time

    def time_per_plan(self):
        """The paper's normalised measure: optimization time per generated plan."""
        if not self.plans:
            return float("inf")
        return self.total_time / len(self.plans)

    def plan_queries(self):
        """Return the plans as plain queries."""
        return [plan.query for plan in self.plans]

    def best_plan(self, cost_function):
        """Return the cheapest plan according to ``cost_function(query) -> float``."""
        if not self.plans:
            return None
        best = min(self.plans, key=lambda plan: cost_function(plan.query))
        best.cost = cost_function(best.query)
        return best


# ---------------------------------------------------------------------- #
# per-fragment / per-stage work unit (OQF and OCS fan-out)
# ---------------------------------------------------------------------- #
@dataclass
class _StageTask:
    """One independent chase+backchase unit: an OQF fragment or an OCS stage.

    ``chase_cache`` is an optional warm
    :class:`~repro.chase.implication.ChaseCache` built for *exactly*
    ``constraints``, and ``containment_memo`` the memo read with it.
    Without them the task's backchase makes goal-directed checks and keeps
    nothing.  Under the optimizer service, stage tasks run on the shard's
    worker pool through :meth:`~repro.service.scheduler.ScheduledPool.map`.
    """

    query: object
    constraints: list
    deadline: float | None
    label: str
    chase_cache: object = None
    containment_memo: object = None


@dataclass
class _StageOutcome:
    """Summary of one stage's chase+backchase, merged in order."""

    plan_queries: list = field(default_factory=list)
    chase_time: float = 0.0
    subqueries_explored: int = 0
    equivalence_checks: int = 0
    closure_queries: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    timed_out: bool = False


def _run_stage_task(task):
    """Chase a stage query and backchase its universal plan.

    The remaining budget is recomputed *after* the chase (the chase itself is
    deadline-bounded), so the backchase never starts with a stale budget and
    the stage as a whole stays inside the optimizer's deadline.  A warm
    ``task.chase_cache`` short-circuits both the stage chase and the
    backchase's equivalence chases without changing any result (cache entries
    are exact fixpoints for exactly ``task.constraints``).
    """
    if task.chase_cache is not None:
        chase_result = task.chase_cache.chase_result(task.query, deadline=task.deadline)
    else:
        chase_result = chase(task.query, task.constraints, deadline=task.deadline)
    if chase_result.timed_out:
        return _StageOutcome(
            chase_time=chase_result.elapsed,
            closure_queries=chase_result.counters.closure_queries,
            timed_out=True,
        )
    remaining = (
        None if task.deadline is None else max(0.0, task.deadline - time.perf_counter())
    )
    backchaser = FullBackchase(
        task.query,
        task.constraints,
        timeout=remaining,
        strategy_label=task.label,
        chase_cache=task.chase_cache,
        containment_memo=task.containment_memo,
    )
    result = backchaser.run(chase_result.query)
    return _StageOutcome(
        plan_queries=[plan.query for plan in result.plans],
        chase_time=chase_result.elapsed,
        subqueries_explored=result.subqueries_explored,
        equivalence_checks=result.equivalence_checks,
        closure_queries=chase_result.counters.closure_queries + result.closure_queries,
        cache_hits=result.cache_hits,
        cache_misses=result.cache_misses,
        timed_out=result.timed_out,
    )


class CBOptimizer:
    """Chase & Backchase optimizer over a catalog (or explicit constraint set).

    Parameters
    ----------
    catalog:
        A :class:`~repro.schema.catalog.Catalog`; provides both the
        constraints and the skeletons needed by OQF.  Every constraint view
        here (:meth:`constraints`, :meth:`skeletons`,
        :meth:`semantic_constraints`, a structure's extra constraints) reads
        the catalog's one compile (:meth:`~repro.schema.catalog.Catalog.
        compiled`), so a request on a known catalog compiles nothing, and an
        OQF request on a query object it has seen reuses that object's
        decomposition (:func:`~repro.chase.stratify.decompose_query`).
    constraints:
        Optional explicit constraint list overriding the catalog's.
    timeout:
        Default per-optimization wall-clock budget in seconds (``None`` for
        unlimited); can be overridden per call.  The budget covers the chase
        phase as well as the backchase.
    cache_registry:
        Optional :class:`~repro.chase.implication.ChaseCacheRegistry` of
        warm chase caches keyed by exact constraint set.  When given, the
        chase phase, the backchase equivalence chases and the OQF/OCS stage
        chases all read/write the registry's caches, so fixpoints survive
        across optimize calls (the optimizer service shares one registry per
        catalog session).  Without one, each equivalence check chases its
        candidate only until the original query maps in, and keeps nothing.
        Plan sets are unaffected either way — cached entries are exact
        fixpoints for exactly the constraint set they are keyed under.
    pool:
        Optional :class:`~repro.service.scheduler.ScheduledPool` that runs
        the ``"fb"`` backchase waves and the OQF/OCS stage tasks; the
        service passes one onto its shard's long-lived worker pool here.
        Without one, everything runs inline.
    containment_memo:
        Optional shared :class:`~repro.cq.memo.ContainmentMemo`, read by the
        equivalence checks that run on ``cache_registry``'s caches; it needs
        a ``cache_registry`` (a :class:`ValueError` otherwise).  Verdicts
        are independent of the constraint set (they compare two concrete
        queries), so a single memo serves every strategy, fragment and
        stage; the optimizer service shares one per catalog session, so warm
        requests stop redoing the containment searches.
    """

    def __init__(
        self,
        catalog=None,
        constraints=None,
        timeout=None,
        cache_registry=None,
        pool=None,
        containment_memo=None,
    ):
        if catalog is None and constraints is None:
            raise ValueError("CBOptimizer needs a catalog or an explicit constraint list")
        if containment_memo is not None and cache_registry is None:
            raise ValueError("a containment memo is read only with a cache registry; pass both")
        self.catalog = catalog
        self._constraints = list(constraints) if constraints is not None else None
        self.timeout = timeout
        self.cache_registry = cache_registry
        self.pool = pool
        self.containment_memo = containment_memo

    # ------------------------------------------------------------------ #
    # constraint access
    # ------------------------------------------------------------------ #
    def constraints(self):
        """Return the constraint set used for chasing and equivalence checks."""
        if self._constraints is not None:
            return list(self._constraints)
        return list(self.catalog.constraints())

    def skeletons(self):
        """Return the skeletons available for OQF fragmentation."""
        if self.catalog is None:
            return []
        return self.catalog.skeletons()

    def semantic_constraints(self):
        """Return the semantic (non-skeleton) constraints."""
        if self.catalog is None:
            return self.constraints()
        skeleton_names = self.catalog.compiled().skeleton_names
        return [dep for dep in self.constraints() if dep.name not in skeleton_names]

    # ------------------------------------------------------------------ #
    # chase phase
    # ------------------------------------------------------------------ #
    def universal_plan(self, query, constraints=None):
        """Chase ``query`` with the constraint set and return the ChaseResult."""
        return chase(query, constraints if constraints is not None else self.constraints())

    # ------------------------------------------------------------------ #
    # optimization
    # ------------------------------------------------------------------ #
    def optimize(self, query, strategy="fb", constraints=None, timeout=None):
        """Generate alternative plans for ``query`` under the given strategy."""
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
        query.validate()
        timeout = timeout if timeout is not None else self.timeout
        constraints = constraints if constraints is not None else self.constraints()
        if strategy == "fb":
            result = self._optimize_fb(query, constraints, timeout)
        elif strategy == "oqf":
            result = self._optimize_oqf(query, constraints, timeout)
        else:
            result = self._optimize_ocs(query, constraints, timeout)
        return self._stamp(result)

    def optimize_with_strata(self, query, strata, timeout=None):
        """Run the OCS pipeline with an explicitly chosen stratification.

        Used by the stratification-granularity experiment (Figure 8), which
        varies the number of strata for a fixed query, and available to users
        who want to hand-tune the constraint grouping.
        """
        query.validate()
        timeout = timeout if timeout is not None else self.timeout
        constraints = [dependency for stratum in strata for dependency in stratum]
        return self._stamp(
            self._optimize_ocs(query, constraints, timeout, strata=[list(s) for s in strata])
        )

    # ------------------------------------------------------------------ #
    # parallelism helpers
    # ------------------------------------------------------------------ #
    def _stamp(self, result):
        """Record where the run's parallel work ran: the pool, or inline."""
        if self.pool is not None:
            result.executor = self.pool.kind
            result.workers = self.pool.workers
        return result

    def _stage_cache(self, constraints):
        """Return the warm cache for exactly ``constraints``, or ``None``."""
        if self.cache_registry is None:
            return None
        return self.cache_registry.for_constraints(constraints)

    def _chase(self, query, constraints, deadline):
        """Chase ``query``, through the warm cache registry when configured."""
        cache = self._stage_cache(constraints)
        if cache is not None:
            return cache.chase_result(query, deadline=deadline)
        return chase(query, constraints, deadline=deadline)

    def _make_backchaser(self, original, constraints, timeout, label):
        """Build the configured backchase engine for one universal plan."""
        chase_cache = self._stage_cache(constraints)
        if self.pool is not None:
            return ParallelBackchase(
                original,
                constraints,
                self.pool,
                timeout=timeout,
                strategy_label=label,
                chase_cache=chase_cache,
                containment_memo=self.containment_memo,
            )
        return FullBackchase(
            original,
            constraints,
            timeout=timeout,
            strategy_label=label,
            chase_cache=chase_cache,
            containment_memo=self.containment_memo,
        )

    def _map_stage_tasks(self, tasks):
        """Run independent stage tasks, on the pool when one is configured."""
        if self.pool is None:
            return [_run_stage_task(task) for task in tasks]
        return self.pool.map(_run_stage_task, tasks)

    @staticmethod
    def _remaining(deadline):
        return None if deadline is None else max(0.0, deadline - time.perf_counter())

    # ------------------------------------------------------------------ #
    # FB
    # ------------------------------------------------------------------ #
    def _optimize_fb(self, query, constraints, timeout, strategy_label="fb"):
        start = time.perf_counter()
        deadline = (start + timeout) if timeout is not None else None
        chase_result = self._chase(query, constraints, deadline)
        if chase_result.timed_out:
            # The chase itself ran out of budget: the partially chased query
            # is not a universal plan, so backchasing it could yield
            # non-equivalent "plans".  Fall back to the original query.
            return OptimizationResult(
                original=query,
                strategy=strategy_label,
                plans=[Plan(query, strategy=strategy_label)],
                universal_plan=None,
                chase_time=chase_result.elapsed,
                timed_out=True,
                closure_queries=chase_result.counters.closure_queries,
            )
        backchaser = self._make_backchaser(
            query, constraints, self._remaining(deadline), strategy_label
        )
        backchase_result = backchaser.run(chase_result.query)
        plans = backchase_result.plans or [Plan(query, strategy=strategy_label)]
        return OptimizationResult(
            original=query,
            strategy=strategy_label,
            plans=plans,
            universal_plan=chase_result.query,
            chase_time=chase_result.elapsed,
            backchase_time=backchase_result.elapsed,
            subqueries_explored=backchase_result.subqueries_explored,
            equivalence_checks=backchase_result.equivalence_checks,
            timed_out=backchase_result.timed_out,
            closure_queries=chase_result.counters.closure_queries
            + backchase_result.closure_queries,
            cache_hits=backchase_result.cache_hits,
            cache_misses=backchase_result.cache_misses,
        )

    # ------------------------------------------------------------------ #
    # OQF
    # ------------------------------------------------------------------ #
    def _optimize_oqf(self, query, constraints, timeout):
        start = time.perf_counter()
        skeletons = self.skeletons()
        semantic = self.semantic_constraints() if self.catalog is not None else [
            dep for dep in constraints if dep.kind == "semantic"
        ]
        decomposition = decompose_query(query, skeletons)
        deadline = (start + timeout) if timeout is not None else None
        tasks = []
        for fragment in decomposition.fragments:
            fragment_constraints = list(semantic)
            for skeleton in fragment.skeletons:
                fragment_constraints.extend(skeleton.constraints)
                fragment_constraints.extend(self._extra_constraints_for(skeleton))
            # A secondary index's ``_nonempty`` is both a semantic constraint
            # and its skeleton's extra; chase it once, at its first place.
            fragment_constraints = list(dict.fromkeys(fragment_constraints))
            tasks.append(
                _StageTask(
                    fragment.query,
                    fragment_constraints,
                    deadline,
                    "oqf",
                    chase_cache=self._stage_cache(fragment_constraints),
                    containment_memo=self.containment_memo,
                )
            )

        chase_time = 0.0
        explored = 0
        checks = 0
        closure_queries = 0
        cache_hits = 0
        cache_misses = 0
        timed_out = False
        fragment_plan_sets = []
        outcomes = self._map_stage_tasks(tasks)
        for fragment, outcome in zip(decomposition.fragments, outcomes):
            chase_time += outcome.chase_time
            explored += outcome.subqueries_explored
            checks += outcome.equivalence_checks
            closure_queries += outcome.closure_queries
            cache_hits += outcome.cache_hits
            cache_misses += outcome.cache_misses
            timed_out = timed_out or outcome.timed_out
            plan_set = outcome.plan_queries
            if not plan_set:
                # A timed-out (or otherwise empty) fragment would erase the
                # whole cartesian product; fall back to the fragment's own
                # query so the assembled plans still cover the original.
                plan_set = [fragment.query]
                timed_out = True
            fragment_plan_sets.append(plan_set)

        plans = []
        for combination in _product(fragment_plan_sets):
            assembled = assemble_plan(decomposition, list(combination))
            plans.append(Plan(assembled, strategy="oqf"))
        plans = dedupe_plans(plans) or [Plan(query, strategy="oqf")]
        total = time.perf_counter() - start
        return OptimizationResult(
            original=query,
            strategy="oqf",
            plans=plans,
            universal_plan=None,
            chase_time=chase_time,
            backchase_time=max(0.0, total - chase_time),
            subqueries_explored=explored,
            equivalence_checks=checks,
            timed_out=timed_out,
            fragment_count=decomposition.fragment_count,
            closure_queries=closure_queries,
            cache_hits=cache_hits,
            cache_misses=cache_misses,
        )

    def _extra_constraints_for(self, skeleton):
        """Return the auxiliary constraints of a structure (e.g. non-emptiness)."""
        if self.catalog is None:
            return []
        return list(self.catalog.compiled().extras.get(skeleton.name, ()))

    # ------------------------------------------------------------------ #
    # OCS
    # ------------------------------------------------------------------ #
    def _optimize_ocs(self, query, constraints, timeout, strata=None):
        start = time.perf_counter()
        strata = strata if strata is not None else stratify_constraints(constraints)
        deadline = (start + timeout) if timeout is not None else None
        chase_time = 0.0
        explored = 0
        checks = 0
        closure_queries = 0
        cache_hits = 0
        cache_misses = 0
        timed_out = False
        current = [query]
        for stratum in strata:
            stratum_constraints = list(stratum)
            stratum_cache = self._stage_cache(stratum_constraints)
            tasks = [
                _StageTask(
                    stage_query,
                    stratum_constraints,
                    deadline,
                    "ocs",
                    chase_cache=stratum_cache,
                    containment_memo=self.containment_memo,
                )
                for stage_query in current
            ]
            next_stage = []
            for stage_query, outcome in zip(current, self._map_stage_tasks(tasks)):
                chase_time += outcome.chase_time
                explored += outcome.subqueries_explored
                checks += outcome.equivalence_checks
                closure_queries += outcome.closure_queries
                cache_hits += outcome.cache_hits
                cache_misses += outcome.cache_misses
                timed_out = timed_out or outcome.timed_out
                if outcome.plan_queries:
                    next_stage.extend(outcome.plan_queries)
                else:
                    # A timed-out stage keeps its input query so the
                    # pipeline (and the final plan list) never goes empty.
                    next_stage.append(stage_query)
            current = _dedupe_queries(next_stage)
        plans = dedupe_plans([Plan(plan_query, strategy="ocs") for plan_query in current])
        plans = plans or [Plan(query, strategy="ocs")]
        total = time.perf_counter() - start
        return OptimizationResult(
            original=query,
            strategy="ocs",
            plans=plans,
            universal_plan=None,
            chase_time=chase_time,
            backchase_time=max(0.0, total - chase_time),
            subqueries_explored=explored,
            equivalence_checks=checks,
            timed_out=timed_out,
            stratum_count=len(strata),
            closure_queries=closure_queries,
            cache_hits=cache_hits,
            cache_misses=cache_misses,
        )


def _product(list_of_lists):
    """Cartesian product that degrades gracefully on empty inputs."""
    if not list_of_lists:
        return
    if any(not options for options in list_of_lists):
        return
    import itertools

    yield from itertools.product(*list_of_lists)


def _dedupe_queries(queries):
    seen = set()
    unique = []
    for query in queries:
        key = query.signature()
        if key not in seen:
            seen.add(key)
            unique.append(query)
    return unique


__all__ = ["CBOptimizer", "OptimizationResult", "STRATEGIES"]
