"""Homomorphism search with incremental equality pruning and indexed lookup.

A homomorphism from a source (a query, or the universal part of a
dependency) into a target query is a mapping from source variables to target
variables such that

1. the image of every source range equals the range of the target variable
   it is mapped to (equality modulo the target's where clause), and
2. the image of every source equality follows from the target's where clause.

Finding one is NP-complete in the number of source variables, which stays
small in practice (constraints have at most a handful of universally
quantified variables).  Following Section 3.1 of the paper, the search is a
backtracking enumeration that prunes a partial variable mapping as soon as a
fully-instantiated source condition fails in the target's congruence closure,
rather than building complete mappings and checking them in one step.

Candidate lookup is *indexed*: instead of scanning every target binding and
asking the closure whether its range equals the image of the source range
(one closure query per target binding per search node), a
:class:`BindingIndex` buckets the target bindings by the congruence root of
their range.  Matching a source binding is then one ``root_of`` query plus a
dictionary probe, and only bindings that actually match are enumerated.  The
closure is mutable (searches intern image terms, which can merge classes), so
the index stores the closure generation it was built at and rebuilds itself
lazily when the class structure changed — see
:attr:`repro.cq.congruence.CongruenceClosure.generation`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lang.ast import Var, path_variables, substitute


@dataclass
class SearchStats:
    """Effort counters for one or more homomorphism searches.

    Attributes
    ----------
    closure_queries:
        Congruence-closure queries issued (``equal`` and ``root_of`` calls).
    candidates_tried:
        Target bindings considered as the image of a source binding.
    conditions_checked:
        Source conditions verified against the target closure.
    """

    closure_queries: int = 0
    candidates_tried: int = 0
    conditions_checked: int = 0

    def add(self, other):
        """Accumulate another stats object into this one."""
        self.closure_queries += other.closure_queries
        self.candidates_tried += other.candidates_tried
        self.conditions_checked += other.conditions_checked


class BindingIndex:
    """Candidate index over a target query's bindings.

    Buckets the target bindings by the congruence root of their range, so the
    search finds every binding whose range equals a given path (modulo the
    target's where clause) with a single ``root_of`` query instead of a scan.
    A by-name map of binding positions answers the pre-assigned-variable
    lookup of ``_range_matches`` in O(1).

    The index tracks the closure generation it was built at; any union in the
    closure (searches intern new terms, the chase asserts new equalities)
    invalidates the root keys and triggers a lazy rebuild, which only re-finds
    the root of each binding range (the ranges themselves are already
    interned, so a rebuild can never cause further unions).

    The index holds no reference to its closure: every call that reads the
    closure takes it as an argument, and the caller passes the one the index
    was built over.  A query's shared closure caches its index
    (``CongruenceClosure.binding_index``), and an index pointing back at the
    closure would make the pair a reference cycle, so a closure dropped from
    the shared cache would wait for the cycle collector instead of being
    freed with its last reference.

    ``bindings`` is kept as given, not copied: a shared closure's index
    holds its query's own binding tuple for as long as the closure is
    cached, and the incremental chase passes a list that
    :meth:`add_binding` extends.
    """

    def __init__(self, bindings):
        self.bindings = bindings
        self._positions = {binding.var: i for i, binding in enumerate(bindings)}
        self._by_range_root = {}
        self._generation = None
        self._union_mark = 0

    def covers(self, bindings):
        """Return ``True`` when the index is built over exactly ``bindings``."""
        return self.bindings is bindings or (
            len(self.bindings) == len(bindings)
            and all(mine == theirs for mine, theirs in zip(self.bindings, bindings))
        )

    def _rebuild(self, closure, stats=None):
        by_root = {}
        for binding in self.bindings:
            if stats is not None:
                stats.closure_queries += 1
            root = closure.root_of(binding.range)
            by_root.setdefault(root, []).append(binding)
        self._by_range_root = by_root
        self._generation = closure.generation
        self._union_mark = closure.union_count

    def _sync(self, closure, stats=None):
        """Repair the buckets after closure unions, with dictionary moves only.

        Entries keyed by an absorbed root belong to the surviving root of the
        same union; replaying the union log in order also covers cascaded
        absorptions.  Merged buckets are re-sorted by binding position so the
        candidate enumeration order stays identical to a scan of the target
        bindings (the chase relies on this for deterministic step order).
        """
        if self._generation == closure.generation:
            return
        if self._generation is None:
            self._rebuild(closure, stats)
            return
        merged_keys = []
        for surviving, absorbed in closure.union_pairs_since(self._union_mark):
            moved = self._by_range_root.pop(absorbed, None)
            if moved is not None:
                self._by_range_root.setdefault(surviving, []).extend(moved)
                merged_keys.append(surviving)
        for key in merged_keys:
            bucket = self._by_range_root.get(key)
            if bucket is not None and len(bucket) > 1:
                bucket.sort(key=lambda binding: self._positions[binding.var])
        self._generation = closure.generation
        self._union_mark = closure.union_count

    def add_binding(self, binding, closure, stats=None):
        """Register a binding appended to the target (incremental chase)."""
        self.bindings.append(binding)
        self._positions[binding.var] = len(self.bindings) - 1
        if self._generation is None:
            return
        if stats is not None:
            stats.closure_queries += 1
        root = closure.root_of(binding.range)
        self._sync(closure, stats)
        self._by_range_root.setdefault(root, []).append(binding)

    def candidates(self, image_range, closure, stats=None):
        """Return the target bindings whose range equals ``image_range``.

        The result is a snapshot: the live buckets may be repaired by a later
        ``_sync`` while a caller is still iterating (the backtracking search
        holds suspended candidate iterators), so the mutable list is never
        exposed.
        """
        if stats is not None:
            stats.closure_queries += 1
        root = closure.root_of(image_range)
        self._sync(closure, stats)
        return tuple(self._by_range_root.get(root, ()))

    def binding_named(self, name):
        """Return the target binding of variable ``name`` (or ``None``)."""
        position = self._positions.get(name)
        return None if position is None else self.bindings[position]


def _index_for(target, closure):
    """Return the candidate index for ``target`` cached on ``closure``.

    Each closure serves one target query (the shared per-query closure, or a
    chase's evolving closure which manages its index explicitly), so a single
    cached slot suffices; it is re-validated against the binding tuple in
    case two structurally-equal queries share the closure.

    The index is built eagerly and uncounted here, mirroring the shared
    congruence closure itself: both are process-wide caches whose one-time
    construction is amortised over every later search, so charging it to
    whichever caller happens to arrive first would make the per-search
    counters depend on cache warm-up order.  (The incremental chase owns its
    index and *does* charge its build and maintenance to its own counters.)
    """
    index = closure.binding_index
    if index is None or not index.covers(target.bindings):
        index = BindingIndex(target.bindings)
        index._rebuild(closure)
        closure.binding_index = index
    return index


def find_homomorphisms(
    source_bindings,
    source_conditions,
    target,
    target_closure=None,
    initial=None,
    injective=False,
    prune_early=True,
    target_index=None,
    stats=None,
    use_index=True,
    schedule=None,
):
    """Yield every homomorphism from the source into ``target``.

    Parameters
    ----------
    source_bindings:
        Iterable of :class:`~repro.lang.ast.Binding` -- the source prefix, in
        an order where ranges only reference earlier variables.
    source_conditions:
        Iterable of :class:`~repro.lang.ast.Eq` -- the source conditions.
    target:
        The target :class:`~repro.cq.query.PCQuery`.
    target_closure:
        Optional pre-built congruence closure of the target (defaults to the
        target's shared closure).
    initial:
        Optional partial mapping ``{source var name: Path}`` to extend.
    injective:
        When ``True``, two distinct source variables may not map to the same
        target variable (used by the OCS interaction test).
    prune_early:
        When ``True`` (the default), source conditions are checked as soon as
        all their variables are mapped; disabling this reproduces the naive
        generate-and-test search for the ablation benchmark.
    target_index:
        Optional pre-built :class:`BindingIndex` over the target (the
        incremental chase maintains one across steps).
    stats:
        Optional :class:`SearchStats` accumulating search effort.
    use_index:
        When ``False``, candidate lookup scans every target binding with one
        closure query each (the pre-index behaviour, kept for the ablation
        benchmark).
    schedule:
        Optional :func:`schedule_conditions` result for exactly these source
        bindings, conditions and pre-assigned variables (the keys of
        ``initial``).  A source searched many times keeps its schedule:
        the chase's dependencies do, and so does the backchase's original
        query (:func:`repro.cq.containment.keep_search_schedule`).

    Yields
    ------
    dict
        Mappings from source variable names to :class:`~repro.lang.ast.Var`
        paths over the target.

    The search is one backtracking loop over an explicit stack of candidate
    iterators, in this generator alone.  It must stay free of reference
    cycles: a nested generator calling itself through its closure cell
    would make every search (tens of thousands per cold request) a cycle,
    keeping its mapping, schedule, candidate tuples and suspended frames
    alive until the cycle collector runs.  Without one, the last reference
    to the generator frees everything, also when :func:`find_homomorphism`
    abandons it after its first mapping.  The mappings come in depth-first
    order, lexicographic in the target positions of the source bindings'
    images, which the chase's step order (and so every plan) depends on.
    """
    bindings = tuple(source_bindings)
    conditions = tuple(source_conditions)
    closure = target_closure if target_closure is not None else target.congruence()
    mapping = dict(initial) if initial else {}

    # Conditions indexed by the position of the last source binding they need,
    # so each is checked exactly once, as early as possible.
    if schedule is None:
        schedule = schedule_conditions(bindings, conditions, mapping)

    if use_index:
        index = target_index if target_index is not None else _index_for(target, closure)
    else:
        index = None
    target_bindings = target.bindings

    # With no source bindings the search never visits a position, so the
    # conditions whose variables are all pre-assigned (the schedule's one
    # entry) are checked here; otherwise an invalid initial mapping would be
    # yielded.
    if not bindings:
        if _conditions_hold(schedule[0], mapping, closure, True, stats):
            yield dict(mapping)
        return

    # Target variables already used as images; only the injective mode reads
    # it.  A name the search assigns was not in it before (the injective
    # check skips those), so discarding it on backtracking is exact.
    used = {value.name for value in mapping.values() if isinstance(value, Var)} if injective else None

    depth = len(bindings)
    # Per position: the iterator over its remaining candidates (``None``
    # until the position is entered, ``()`` for a pre-assigned variable),
    # and the target variable it is assigned to (``None`` when unassigned).
    iterators = [None] * depth
    chosen = [None] * depth
    position = 0
    while position >= 0:
        if position == depth:
            # When pruning is disabled all conditions are checked here.
            if prune_early or _conditions_hold(conditions, mapping, closure, True, stats):
                yield dict(mapping)
            position -= 1
            continue
        source_binding = bindings[position]
        var = source_binding.var
        remaining = iterators[position]
        if remaining is None:
            image_range = substitute(source_binding.range, mapping)
            if var in mapping:
                # Pre-assigned by the initial mapping: only verify the range.
                if _range_matches(
                    mapping[var], image_range, index, target_bindings, closure, stats
                ) and _conditions_hold(schedule[position], mapping, closure, prune_early, stats):
                    iterators[position] = ()
                    position += 1
                else:
                    position -= 1
                continue
            if index is not None:
                remaining = iter(index.candidates(image_range, closure, stats))
            else:
                remaining = iter(_scan_candidates(image_range, target_bindings, closure, stats))
            iterators[position] = remaining
        else:
            name = chosen[position]
            if name is not None:
                chosen[position] = None
                del mapping[var]
                if injective:
                    used.discard(name)
        for target_binding in remaining:
            name = target_binding.var
            if injective and name in used:
                continue
            if stats is not None:
                stats.candidates_tried += 1
            mapping[var] = Var(name)
            if _conditions_hold(schedule[position], mapping, closure, prune_early, stats):
                chosen[position] = name
                if injective:
                    used.add(name)
                position += 1
                break
            del mapping[var]
        else:
            iterators[position] = None
            position -= 1


def find_homomorphism(source_bindings, source_conditions, target, **kwargs):
    """Return the first homomorphism found, or ``None``."""
    for mapping in find_homomorphisms(source_bindings, source_conditions, target, **kwargs):
        return mapping
    return None


def count_homomorphisms(source_bindings, source_conditions, target, **kwargs):
    """Return the number of homomorphisms (useful in tests and benchmarks)."""
    return sum(1 for _ in find_homomorphisms(source_bindings, source_conditions, target, **kwargs))


def query_homomorphisms(source, target, **kwargs):
    """Yield homomorphisms from query ``source`` into query ``target``.

    Output clauses are ignored, exactly as in the paper's definition; use
    :mod:`repro.cq.containment` for output-preserving (containment) mappings.
    """
    yield from find_homomorphisms(source.bindings, source.conditions, target, **kwargs)


def schedule_conditions(bindings, conditions, preassigned=()):
    """Assign each condition to the earliest binding position where it is checkable.

    Returns a tuple with one entry per binding (one entry when there is
    none): entry ``i`` holds the conditions that become fully instantiated
    once binding ``i`` is assigned, and entry 0 also those checkable before
    any binding is, whose variables are all constant or pre-assigned.
    ``preassigned`` holds the source variables the initial mapping already
    assigns.  The result depends on nothing else and is immutable, so a
    source searched many times keeps one (see :func:`find_homomorphisms`'s
    ``schedule``) and concurrent searches share it.
    """
    positions = {binding.var: index for index, binding in enumerate(bindings)}
    slots = [[] for _ in range(len(bindings) + 1)]
    pre_assigned = set(preassigned)
    for condition in conditions:
        variables = path_variables(condition.left) | path_variables(condition.right)
        needed = [positions[var] for var in variables if var in positions and var not in pre_assigned]
        slots[max(needed) + 1 if needed else 0].append(condition)
    checks = [tuple(slot) for slot in slots[1:]] or [()]
    checks[0] = tuple(slots[0]) + checks[0]
    return tuple(checks)


def _conditions_hold(conditions, mapping, closure, prune_early, stats=None):
    if not prune_early:
        return True
    for condition in conditions:
        if stats is not None:
            stats.closure_queries += 1
            stats.conditions_checked += 1
        image = condition.substitute(mapping)
        if not closure.equal(image.left, image.right):
            return False
    return True


def _scan_candidates(image_range, target_bindings, closure, stats=None):
    """The target bindings whose range equals ``image_range``, by a full scan."""
    matches = []
    for target_binding in target_bindings:
        if stats is not None:
            stats.closure_queries += 1
        if closure.equal(image_range, target_binding.range):
            matches.append(target_binding)
    return matches


def _range_matches(assigned, image_range, index, target_bindings, closure, stats=None):
    """Check that a pre-assigned variable maps onto a binding with the right range."""
    if not isinstance(assigned, Var):
        return False
    if index is not None:
        target_binding = index.binding_named(assigned.name)
    else:
        target_binding = None
        for candidate in target_bindings:
            if candidate.var == assigned.name:
                target_binding = candidate
                break
    if target_binding is None:
        return False
    if stats is not None:
        stats.closure_queries += 1
    return closure.equal(image_range, target_binding.range)


__all__ = [
    "BindingIndex",
    "SearchStats",
    "count_homomorphisms",
    "find_homomorphism",
    "find_homomorphisms",
    "query_homomorphisms",
    "schedule_conditions",
]
