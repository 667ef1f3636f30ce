"""Unit tests for the congruence closure engine."""

from repro.cq.congruence import CongruenceClosure
from repro.lang.ast import Attr, Const, Dom, Eq, Lookup, SchemaRef, Var


class TestBasicEquality:
    def test_reflexive(self):
        closure = CongruenceClosure()
        assert closure.equal(Var("x"), Var("x"))

    def test_unrelated_terms_not_equal(self):
        closure = CongruenceClosure()
        assert not closure.equal(Var("x"), Var("y"))

    def test_merge_makes_equal(self):
        closure = CongruenceClosure()
        closure.merge(Var("x"), Var("y"))
        assert closure.equal(Var("x"), Var("y"))

    def test_symmetry(self):
        closure = CongruenceClosure()
        closure.merge(Var("x"), Var("y"))
        assert closure.equal(Var("y"), Var("x"))

    def test_transitivity(self):
        closure = CongruenceClosure()
        closure.merge(Var("x"), Var("y"))
        closure.merge(Var("y"), Var("z"))
        assert closure.equal(Var("x"), Var("z"))

    def test_from_equalities_constructor(self):
        closure = CongruenceClosure([Eq(Var("x"), Var("y")), Eq(Var("y"), Const(1))])
        assert closure.equal(Var("x"), Const(1))

    def test_distinct_constants_stay_distinct(self):
        closure = CongruenceClosure()
        assert not closure.equal(Const(1), Const(2))


class TestCongruencePropagation:
    def test_attribute_congruence(self):
        closure = CongruenceClosure()
        closure.add_term(Attr(Var("x"), "A"))
        closure.add_term(Attr(Var("y"), "A"))
        closure.merge(Var("x"), Var("y"))
        assert closure.equal(Attr(Var("x"), "A"), Attr(Var("y"), "A"))

    def test_attribute_congruence_with_late_interning(self):
        closure = CongruenceClosure()
        closure.add_term(Attr(Var("x"), "A"))
        closure.merge(Var("x"), Var("y"))
        # Attr(y, A) is only interned by the query itself.
        assert closure.equal(Attr(Var("x"), "A"), Attr(Var("y"), "A"))

    def test_lookup_congruence_on_key(self):
        closure = CongruenceClosure()
        dictionary = SchemaRef("M")
        closure.add_term(Attr(Lookup(dictionary, Var("k")), "N"))
        closure.merge(Var("k"), Var("j"))
        assert closure.equal(Lookup(dictionary, Var("k")), Lookup(dictionary, Var("j")))

    def test_lookup_congruence_both_orders_of_query(self):
        # Regression test: asking about the equality must not depend on which
        # side is interned first (the ordering bug found during EC3 bring-up).
        closure = CongruenceClosure()
        closure.add_term(Attr(Lookup(SchemaRef("M1"), Var("k1")), "N"))
        closure.merge(Var("k1"), Var("o2"))
        assert closure.equal(Lookup(SchemaRef("M1"), Var("k1")), Lookup(SchemaRef("M1"), Var("o2")))
        assert closure.equal(Lookup(SchemaRef("M1"), Var("o2")), Lookup(SchemaRef("M1"), Var("k1")))

    def test_dom_congruence(self):
        closure = CongruenceClosure()
        closure.add_term(Dom(Var("x")))
        closure.merge(Var("x"), Var("y"))
        assert closure.equal(Dom(Var("x")), Dom(Var("y")))

    def test_nested_congruence(self):
        closure = CongruenceClosure()
        closure.add_term(Attr(Attr(Var("x"), "A"), "B"))
        closure.merge(Var("x"), Var("y"))
        assert closure.equal(Attr(Attr(Var("x"), "A"), "B"), Attr(Attr(Var("y"), "A"), "B"))

    def test_different_attributes_not_merged(self):
        closure = CongruenceClosure()
        closure.merge(Var("x"), Var("y"))
        assert not closure.equal(Attr(Var("x"), "A"), Attr(Var("y"), "B"))

    def test_merging_attribute_values_does_not_merge_bases(self):
        closure = CongruenceClosure()
        closure.merge(Attr(Var("x"), "A"), Attr(Var("y"), "A"))
        assert not closure.equal(Var("x"), Var("y"))


class TestIntrospection:
    def test_classes_partition_terms(self):
        closure = CongruenceClosure()
        closure.merge(Var("x"), Var("y"))
        closure.add_term(Var("z"))
        classes = closure.classes()
        assert sorted(len(cls) for cls in classes) == [1, 2]

    def test_equivalent_terms(self):
        closure = CongruenceClosure()
        closure.merge(Var("x"), Var("y"))
        terms = closure.equivalent_terms(Var("x"))
        assert Var("x") in terms and Var("y") in terms

    def test_representative_is_deterministic(self):
        closure = CongruenceClosure()
        closure.merge(Var("x"), Var("y"))
        assert closure.representative(Var("x")) == closure.representative(Var("y"))

    def test_has_term(self):
        closure = CongruenceClosure()
        closure.add_term(Var("x"))
        assert closure.has_term(Var("x"))
        assert not closure.has_term(Var("y"))

    def test_len_counts_interned_terms(self):
        closure = CongruenceClosure()
        closure.add_term(Attr(Var("x"), "A"))
        assert len(closure) == 2

    def test_classes_order_matches_interning_order(self):
        closure = CongruenceClosure()
        closure.add_term(Var("a"))
        closure.add_term(Var("b"))
        closure.add_term(Var("c"))
        closure.merge(Var("b"), Var("c"))
        classes = closure.classes()
        assert classes == [[Var("a")], [Var("b"), Var("c")]]

    def test_representative_is_smallest_interned_term(self):
        closure = CongruenceClosure()
        closure.add_term(Var("later"))
        closure.merge(Var("later"), Var("web"))
        assert closure.representative(Var("web")) == Var("later")


class TestGenerationsAndLog:
    def test_generation_bumps_only_on_union(self):
        closure = CongruenceClosure()
        before = closure.generation
        closure.add_term(Var("x"))
        closure.add_term(Var("y"))
        assert closure.generation == before  # interning alone merges nothing
        closure.merge(Var("x"), Var("y"))
        assert closure.generation == before + 1

    def test_congruence_cascade_is_logged(self):
        closure = CongruenceClosure()
        closure.add_term(Attr(Var("x"), "A"))
        closure.add_term(Attr(Var("y"), "A"))
        mark = closure.union_count
        closure.merge(Var("x"), Var("y"))
        # The merge of x and y cascades to x.A and y.A: two unions.
        assert closure.union_count == mark + 2
        disturbed = closure.unions_since(mark)
        members = {term for root in disturbed for term in closure.class_terms(root)}
        assert {Var("x"), Var("y"), Attr(Var("x"), "A"), Attr(Var("y"), "A")} <= members

    def test_root_of_is_stable_within_a_generation(self):
        closure = CongruenceClosure()
        closure.merge(Var("x"), Var("y"))
        generation = closure.generation
        assert closure.root_of(Var("x")) == closure.root_of(Var("y"))
        assert closure.generation == generation

    def test_union_pairs_since_replays_bucket_moves(self):
        closure = CongruenceClosure()
        roots = {var: closure.root_of(Var(var)) for var in "abc"}
        mark = closure.union_count
        closure.merge(Var("a"), Var("b"))
        closure.merge(Var("b"), Var("c"))
        pairs = closure.union_pairs_since(mark)
        assert len(pairs) == 2
        # Replaying the pairs maps every absorbed root to the final class.
        buckets = {root: [var] for var, root in roots.items()}
        for surviving, absorbed in pairs:
            moved = buckets.pop(absorbed, None)
            if moved:
                buckets.setdefault(surviving, []).extend(moved)
        assert len(buckets) == 1
        assert sorted(next(iter(buckets.values()))) == ["a", "b", "c"]
