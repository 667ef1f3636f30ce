"""Containment mappings, equivalence and (unconstrained) minimality.

For path-conjunctive queries without constraints, containment is decided by
containment mappings exactly as for relational conjunctive queries:
``Q1 is contained in Q2`` iff there is a homomorphism from ``Q2`` into ``Q1``
that also maps the output of ``Q2`` onto the output of ``Q1`` (modulo the
equalities of ``Q1``'s where clause).

Equivalence *under constraints* is the job of the chase
(:mod:`repro.chase.implication`); this module provides the constraint-free
primitives it builds on.
"""

from __future__ import annotations

from repro.lang.ast import substitute
from repro.cq.homomorphism import find_homomorphisms, schedule_conditions
from repro.trace import traced_stage


def outputs_match(source, target, mapping, target_closure=None):
    """Check that ``mapping`` sends the output of ``source`` onto that of ``target``.

    Both queries must expose the same set of output labels; for each label the
    image of the source path must equal the target path modulo the target's
    where clause.
    """
    closure = target_closure if target_closure is not None else target.congruence()
    source_fields = dict(source.output)
    target_fields = dict(target.output)
    if set(source_fields) != set(target_fields):
        return False
    for label, source_path in source_fields.items():
        image = substitute(source_path, mapping)
        if not closure.equal(image, target_fields[label]):
            return False
    return True


def find_containment_mapping(source, target):
    """Return a containment mapping from ``source`` into ``target``, or ``None``.

    A containment mapping is an (output-preserving) homomorphism; its
    existence proves ``target ⊆ source``.
    """
    closure = target.congruence()
    for mapping in find_homomorphisms(
        source.bindings,
        source.conditions,
        target,
        target_closure=closure,
        schedule=source.__dict__.get("_search_schedule"),
    ):
        if outputs_match(source, target, mapping, target_closure=closure):
            return mapping
    return None


@traced_stage("containment")
def has_containment_mapping(source, target, stats=None):
    """Return ``True`` when a containment mapping ``source`` → ``target`` exists.

    The boolean twin of :func:`find_containment_mapping`, with an optional
    :class:`~repro.cq.homomorphism.SearchStats` accumulator.  This is the
    single search the backchase equivalence test and the containment memo
    (:mod:`repro.cq.memo`) both bottom out in, so the memoised verdict is by
    construction the fresh verdict.
    """
    closure = target.congruence()
    for mapping in find_homomorphisms(
        source.bindings,
        source.conditions,
        target,
        target_closure=closure,
        stats=stats,
        schedule=source.__dict__.get("_search_schedule"),
    ):
        if outputs_match(source, target, mapping, target_closure=closure):
            return True
    return False


def keep_search_schedule(source):
    """Keep the condition schedule of ``source`` as a containment source on the query.

    The schedule depends only on the query's bindings and conditions.  A
    source that is searched many times keeps it in its instance dict
    (``_search_schedule``, read by every containment search from it), like
    ``PCQuery.signature``: the backchase keeps the
    schedule of its original query, the source of every check's search,
    and a goal-directed chase (:func:`repro.chase.chase.chase`) that of its
    goal.  Other sources, such as the queries of a one-off containment
    test, are searched about once each, and build theirs per search rather
    than hold one for the life of the query.  Two threads racing on a fresh
    query both build equal schedules, and either store wins.
    """
    schedule = source.__dict__.get("_search_schedule")
    if schedule is None:
        schedule = schedule_conditions(source.bindings, source.conditions)
        object.__setattr__(source, "_search_schedule", schedule)
    return schedule


def is_contained_in(query, other):
    """Return ``True`` when ``query ⊆ other`` (no constraints)."""
    return find_containment_mapping(other, query) is not None


def is_equivalent(query, other):
    """Return ``True`` when the two queries are equivalent (no constraints)."""
    return is_contained_in(query, other) and is_contained_in(other, query)


def is_minimal(query):
    """Return ``True`` when no strict subquery of ``query`` is equivalent to it.

    This is plain tableau-style minimality (no constraints): for every
    binding, dropping it either loses the output or breaks equivalence.
    """
    variables = query.variable_set
    for var in variables:
        subquery = query.restrict_to(variables - {var})
        if subquery is None:
            continue
        if is_equivalent(subquery, query):
            return False
    return True


def minimize(query):
    """Return some minimal query equivalent to ``query`` (no constraints).

    Greedily removes bindings while equivalence is preserved; the result is a
    minimal equivalent subquery (unique up to isomorphism for conjunctive
    queries).
    """
    current = query
    changed = True
    while changed:
        changed = False
        for var in current.variables:
            subquery = current.restrict_to(current.variable_set - {var})
            if subquery is None:
                continue
            if is_equivalent(subquery, query):
                current = subquery
                changed = True
                break
    return current


__all__ = [
    "find_containment_mapping",
    "has_containment_mapping",
    "is_contained_in",
    "is_equivalent",
    "is_minimal",
    "keep_search_schedule",
    "minimize",
    "outputs_match",
]
