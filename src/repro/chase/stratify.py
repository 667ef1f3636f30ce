"""Stratification strategies for the backchase: OQF and OCS.

The full backchase explores exponentially many subqueries of the universal
plan.  Section 3.2 of the paper introduces two ways of cutting the search
space by grouping constraints that do not interact:

* **On-line Query Fragmentation (OQF, Algorithm 3.1 / B.1)** -- decompose the
  *query* into fragments induced by the connected components of an
  interaction graph whose nodes are (skeleton, homomorphism-into-the-query)
  pairs, optimize each fragment independently, and assemble the cartesian
  product of fragment plans.  Complete for skeleton schemas (Theorem 3.2).

* **Off-line Constraint Stratification (OCS, Algorithm 3.3 / C.1)** --
  partition the *constraints* into strata using a query-independent
  interaction graph (homomorphisms between constraint tableaux) and pipeline
  the whole query through one chase/backchase stage per stratum.  A
  heuristic: faster, but may miss plans.

This module contains the two decomposition algorithms and the OQF plan
assembly; the strategy drivers live in :mod:`repro.chase.optimizer`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from repro.cq.homomorphism import find_homomorphism, find_homomorphisms
from repro.cq.query import PCQuery
from repro.lang.ast import Eq, path_variables


# ---------------------------------------------------------------------- #
# small union-find used by both algorithms
# ---------------------------------------------------------------------- #
class _UnionFind:
    def __init__(self, items):
        self._parent = {item: item for item in items}

    def find(self, item):
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, left, right):
        left_root, right_root = self.find(left), self.find(right)
        if left_root != right_root:
            self._parent[right_root] = left_root

    def groups(self):
        by_root = {}
        for item in self._parent:
            by_root.setdefault(self.find(item), []).append(item)
        return list(by_root.values())


# ---------------------------------------------------------------------- #
# OQF: query decomposition into fragments (Algorithm B.1)
# ---------------------------------------------------------------------- #
@dataclass
class QueryFragment:
    """One fragment of the input query, optimised independently under OQF.

    Attributes
    ----------
    index:
        Position of the fragment in the decomposition.
    variables:
        The binding variables of the original query covered by this fragment.
    query:
        The fragment as a query: the induced bindings and conditions, with an
        output consisting of the original output fields rooted in the
        fragment plus one *link path* per cross-fragment join condition.
    skeletons:
        The skeletons whose homomorphic images fall inside this fragment;
        their constraints are the physical constraints used when optimising
        the fragment.
    """

    index: int
    variables: frozenset
    query: PCQuery
    skeletons: list = field(default_factory=list)


@dataclass
class Decomposition:
    """The result of Algorithm B.1: fragments plus cross-fragment join info."""

    original: PCQuery
    fragments: list
    cross_conditions: list
    # each cross condition is a tuple
    # (left_fragment_index, left_label, right_fragment_index, right_label)

    @property
    def fragment_count(self):
        return len(self.fragments)

    def fragment_of_output(self, label):
        """Return the fragment that carries the original output field ``label``."""
        for fragment in self.fragments:
            if any(field_label == label for field_label, _ in fragment.query.output):
                return fragment
        raise KeyError(label)


def decompose_query(query, skeletons):
    """Decompose ``query`` into fragments based on the skeleton interaction graph.

    Implements Algorithm B.1: one node per (skeleton, homomorphism into the
    query), an edge whenever the images of two homomorphisms share a binding,
    fragments from the connected components, and a final fragment holding the
    bindings not covered by any skeleton image.
    """
    variables = list(query.variables)
    union = _UnionFind(variables)

    # 1. Skeleton homomorphism images: bindings reached by the same image (or
    #    by overlapping images) end up in the same fragment.
    covered = set()
    image_records = []  # (skeleton, image variable set)
    closure = query.congruence()
    for skeleton in skeletons:
        forward = skeleton.forward
        for mapping in find_homomorphisms(
            forward.universal, forward.premise, query, target_closure=closure
        ):
            image = {mapping[var].name for var in forward.universal_variables}
            image_records.append((skeleton, frozenset(image)))
            covered |= image
            anchor = next(iter(image))
            for var in image:
                union.union(anchor, var)

    # 2. Structural merges: a binding whose range navigates through a variable
    #    of another component, an output path or a condition side spanning two
    #    components all force the components to be optimised together.
    for binding in query.bindings:
        for var in path_variables(binding.range):
            union.union(binding.var, var)
    for _, path in query.output:
        names = sorted(path_variables(path))
        for var in names[1:]:
            union.union(names[0], var)
    for condition in query.conditions:
        for side in (condition.left, condition.right):
            names = sorted(path_variables(side))
            for var in names[1:]:
                union.union(names[0], var)

    # 3. Connected components containing at least one covered binding become
    #    skeleton fragments; everything else is pooled into one leftover
    #    fragment (Step 4 of Algorithm B.1).
    component_groups = []
    leftover = []
    for group in union.groups():
        if covered & set(group):
            component_groups.append(frozenset(group))
        else:
            leftover.extend(group)
    component_groups.sort(key=lambda group: min(variables.index(var) for var in group))
    if leftover:
        component_groups.append(frozenset(leftover))

    fragment_of_var = {}
    for index, group in enumerate(component_groups):
        for var in group:
            fragment_of_var[var] = index

    # 4. Cross-fragment join conditions become link paths on both sides.
    cross_conditions = []
    link_outputs = [[] for _ in component_groups]
    for cond_index, condition in enumerate(query.conditions):
        left_vars = path_variables(condition.left)
        right_vars = path_variables(condition.right)
        if not left_vars or not right_vars:
            continue
        left_fragment = fragment_of_var[min(left_vars)]
        right_fragment = fragment_of_var[min(right_vars)]
        if left_fragment == right_fragment:
            continue
        left_label = f"__link{cond_index}L"
        right_label = f"__link{cond_index}R"
        link_outputs[left_fragment].append((left_label, condition.left))
        link_outputs[right_fragment].append((right_label, condition.right))
        cross_conditions.append((left_fragment, left_label, right_fragment, right_label))

    # 5. Build the fragment queries: original outputs rooted in the fragment
    #    plus the fragment's link paths.
    fragments = []
    for index, group in enumerate(component_groups):
        outputs = [
            (label, path)
            for label, path in query.output
            if path_variables(path) <= group or (not path_variables(path) and index == 0)
        ]
        outputs += link_outputs[index]
        fragment_query = query.with_output(tuple(outputs)).restrict_to(group)
        if fragment_query is None:
            # Restriction can only fail if an output we assigned to the
            # fragment is not expressible over it, which the assignment above
            # prevents; guard anyway.
            fragment_query = query.with_output(tuple(outputs))
        fragment_skeletons = [
            skeleton for skeleton, image in image_records if image <= group
        ]
        # The same skeleton may have several homomorphisms into one fragment;
        # its constraints are only needed once.
        unique_skeletons = []
        seen = set()
        for skeleton in fragment_skeletons:
            if skeleton.name not in seen:
                seen.add(skeleton.name)
                unique_skeletons.append(skeleton)
        fragments.append(QueryFragment(index, group, fragment_query, unique_skeletons))

    return Decomposition(query, fragments, cross_conditions)


def assemble_plan(decomposition, fragment_plan_queries):
    """Join one plan per fragment back into a plan for the original query.

    ``fragment_plan_queries`` holds one :class:`PCQuery` per fragment, in
    fragment order.  The assembled plan is their join on the link paths, with
    the original output labels recovered from whichever fragment carries them.
    """
    original = decomposition.original
    taken = set()
    renamed_plans = []
    for plan_query in fragment_plan_queries:
        renamed, _ = plan_query.freshen(taken)
        taken |= set(renamed.variables)
        renamed_plans.append(renamed)

    bindings = []
    conditions = []
    for renamed in renamed_plans:
        bindings.extend(renamed.bindings)
        conditions.extend(renamed.conditions)
    for left_fragment, left_label, right_fragment, right_label in decomposition.cross_conditions:
        conditions.append(
            Eq(
                renamed_plans[left_fragment].output_path(left_label),
                renamed_plans[right_fragment].output_path(right_label),
            )
        )

    output = []
    for label, _ in original.output:
        fragment = decomposition.fragment_of_output(label)
        output.append((label, renamed_plans[fragment.index].output_path(label)))

    return PCQuery.create(output, bindings, conditions)


# ---------------------------------------------------------------------- #
# OCS: off-line constraint stratification (Algorithm C.1)
# ---------------------------------------------------------------------- #
def constraints_interact(first, second):
    """Return ``True`` when two dependencies interact (Algorithm C.1, step 1.2).

    Interaction is witnessed by an injective homomorphism between the tableau
    of one constraint and the tableau of the other (in either direction).
    The injectivity requirement keeps an EGD such as a key constraint (two
    bindings over the same relation) from spuriously linking every view that
    mentions that relation, which would collapse all strata into one and
    contradict the stratifications reported in the paper.
    """
    return _tableau_maps_into(first, second) or _tableau_maps_into(second, first)


def _tableau_maps_into(source, target):
    source_bindings, source_conditions = source.tableau()
    target_bindings, target_conditions = target.tableau()
    target_query = PCQuery.create((), target_bindings, target_conditions)
    mapping = find_homomorphism(
        source_bindings, source_conditions, target_query, injective=True
    )
    return mapping is not None


def stratify_constraints(dependencies, egd_in_every_stratum=True):
    """Partition ``dependencies`` into strata (Algorithm C.1).

    TGDs are grouped by the connected components of the interaction graph.
    EGDs (key constraints) are not structural: by default they are appended
    to every stratum so that each stage can still reason with them (see
    DESIGN.md, design choice 4).  With ``egd_in_every_stratum=False`` they
    are stratified like any other constraint.

    Returns a list of lists of dependencies; the order of strata follows the
    order of first appearance in the input.

    The strata depend on nothing but the dependency values, and every OCS
    request on a catalog asks for the same ones, so the pairwise tableau
    homomorphisms run once per constraint list: the partition is memoised
    (bounded, keyed on ``tuple(dependencies)``) as positions into that list,
    and each call builds fresh lists of the caller's own dependency objects,
    which the caller may mutate.
    """
    dependencies = tuple(dependencies)
    return [
        [dependencies[index] for index in stratum]
        for stratum in _strata(dependencies, egd_in_every_stratum)
    ]


@functools.lru_cache(maxsize=256)
def _strata(dependencies, egd_in_every_stratum):
    """The uncached body of :func:`stratify_constraints`, as index tuples."""
    if egd_in_every_stratum:
        structural = [index for index, dep in enumerate(dependencies) if dep.is_tgd]
        egds = tuple(index for index, dep in enumerate(dependencies) if dep.is_egd)
    else:
        structural = list(range(len(dependencies)))
        egds = ()

    if not structural:
        return (egds,) if egds else ()

    union = _UnionFind(range(len(structural)))
    for i in range(len(structural)):
        for j in range(i + 1, len(structural)):
            if constraints_interact(dependencies[structural[i]], dependencies[structural[j]]):
                union.union(i, j)

    groups = union.groups()
    groups.sort(key=min)
    return tuple(
        tuple(structural[index] for index in sorted(group)) + egds for group in groups
    )


__all__ = [
    "Decomposition",
    "QueryFragment",
    "assemble_plan",
    "constraints_interact",
    "decompose_query",
    "stratify_constraints",
]
