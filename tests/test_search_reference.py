"""The homomorphism search against a brute-force reference.

The search is a backtracking loop with early condition checks, indexed
candidate lookup and a pre-built condition schedule, and the chase's step
order depends on the order in which it yields mappings.  The reference here
shares none of that: it enumerates every assignment of the free source
bindings to target bindings, in lexicographic order of target positions,
and keeps those whose ranges and conditions hold in a private closure of
the target (and, in injective mode, whose images are distinct from each
other and from the initial mapping's).  Every variant of the search
(indexed or scanning, pruning early or late) must yield exactly that list,
in that order.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.cq.homomorphism import find_homomorphisms
from repro.cq.query import PCQuery
from repro.lang.ast import Attr, Binding, Const, Eq, SchemaRef, Var, substitute

RELATIONS = ("R", "S")
ATTRIBUTES = ("A", "B")


@st.composite
def _bindings(draw, prefix, max_size):
    """Bindings over R and S, or navigating ``.N`` from an earlier variable."""
    bindings = []
    for position in range(draw(st.integers(min_value=0, max_value=max_size))):
        if position and draw(st.booleans()):
            earlier = bindings[draw(st.integers(min_value=0, max_value=position - 1))]
            range_path = Attr(Var(earlier.var), "N")
        else:
            range_path = SchemaRef(draw(st.sampled_from(RELATIONS)))
        bindings.append(Binding(f"{prefix}{position}", range_path))
    return bindings


@st.composite
def _conditions(draw, bindings, max_size):
    if not bindings:
        return []
    names = [binding.var for binding in bindings]

    def side():
        var = Var(draw(st.sampled_from(names)))
        kind = draw(st.sampled_from(["var", "attr", "attr", "const"]))
        if kind == "var":
            return var
        if kind == "attr":
            return Attr(var, draw(st.sampled_from(ATTRIBUTES)))
        return Const(draw(st.integers(min_value=0, max_value=1)))

    return [Eq(side(), side()) for _ in range(draw(st.integers(min_value=0, max_value=max_size)))]


@st.composite
def _searches(draw):
    target_bindings = draw(_bindings("t", 4).filter(bool))
    target = PCQuery.create((), target_bindings, draw(_conditions(target_bindings, 3))).validate()
    source_bindings = draw(_bindings("x", 3))
    source_conditions = draw(_conditions(source_bindings, 3))
    initial = None
    if source_bindings and draw(st.booleans()):
        fixed = draw(
            st.lists(st.sampled_from(source_bindings), min_size=1, unique=True)
        )
        initial = {
            binding.var: Var(draw(st.sampled_from(target_bindings)).var) for binding in fixed
        }
    return source_bindings, source_conditions, target, initial


def _reference(source_bindings, source_conditions, target, initial, injective):
    closure = target.private_congruence()
    ranges = {binding.var: binding.range for binding in target.bindings}
    fixed = dict(initial or {})
    free = [binding for binding in source_bindings if binding.var not in fixed]
    taken = {value.name for value in fixed.values() if isinstance(value, Var)}

    def range_holds(binding, mapping):
        image = mapping[binding.var]
        if not isinstance(image, Var) or image.name not in ranges:
            return False
        return closure.equal(substitute(binding.range, mapping), ranges[image.name])

    found = []
    for images in itertools.product(target.bindings, repeat=len(free)):
        names = [image.var for image in images]
        if injective and (len(set(names)) < len(names) or taken & set(names)):
            continue
        mapping = dict(fixed)
        mapping.update((binding.var, Var(name)) for binding, name in zip(free, names))
        if all(range_holds(binding, mapping) for binding in source_bindings) and all(
            closure.equal(substitute(condition.left, mapping), substitute(condition.right, mapping))
            for condition in source_conditions
        ):
            found.append(mapping)
    return found


@given(_searches(), st.booleans(), st.booleans(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_the_search_yields_the_brute_force_mappings_in_order(search, injective, use_index, prune_early):
    source_bindings, source_conditions, target, initial = search
    expected = _reference(source_bindings, source_conditions, target, initial, injective)
    found = list(
        find_homomorphisms(
            source_bindings,
            source_conditions,
            target,
            initial=initial,
            injective=injective,
            use_index=use_index,
            prune_early=prune_early,
        )
    )
    assert found == expected
