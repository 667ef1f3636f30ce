"""Embedded path-conjunctive dependencies (the constraint language of C&B).

Every constraint used by the optimizer -- semantic integrity constraints
(keys, foreign keys, inverse relationships) as well as the descriptions of
physical access structures (indexes, materialized views, ASRs) -- is an
embedded dependency of the form::

    forall (x1 in P1) ... (xm in Pm)  [ B1  implies  exists (y1 in Q1) ... (yn in Qn) B2 ]

where ``B1`` and ``B2`` are conjunctions of equalities between paths.  A
dependency with an empty existential prefix and equality conclusions is an
EGD (e.g. a key constraint); one with a non-empty existential prefix is a
TGD (e.g. a referential integrity constraint or one direction of a view
definition).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConstraintError
from repro.lang.ast import Binding, Eq, path_variables, schema_names


@dataclass(frozen=True)
class Dependency:
    """A single embedded dependency.

    Attributes
    ----------
    name:
        A unique, human-readable identifier (e.g. ``"V_1_fwd"`` or
        ``"KEY_R1"``); used in reports and for stratification bookkeeping.
    universal:
        Tuple of :class:`Binding` -- the universally quantified prefix.
    premise:
        Tuple of :class:`Eq` -- the condition ``B1`` on the universal prefix.
    existential:
        Tuple of :class:`Binding` -- the existentially quantified prefix
        (empty for EGDs).
    conclusion:
        Tuple of :class:`Eq` -- the condition ``B2``.
    kind:
        Free-form role tag: ``"semantic"`` for integrity constraints,
        ``"physical"`` for constraints describing access structures.
    """

    name: str
    universal: tuple
    premise: tuple
    existential: tuple
    conclusion: tuple
    kind: str = "semantic"

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def create(cls, name, universal, premise=(), existential=(), conclusion=(), kind="semantic"):
        """Build a dependency from iterables, normalising to tuples."""
        return cls(
            name,
            tuple(universal),
            tuple(premise),
            tuple(existential),
            tuple(conclusion),
            kind,
        )

    @classmethod
    def parse(cls, name, source, kind="semantic"):
        """Parse the ``forall ... implies ...`` concrete syntax."""
        from repro.lang.parser import parse_dependency

        universal, premise, existential, conclusion = parse_dependency(source)
        return cls(name, universal, premise, existential, conclusion, kind)

    def __str__(self):
        from repro.lang.pretty import format_dependency

        return f"{self.name}: {format_dependency(self)}"

    # ------------------------------------------------------------------ #
    # hashing
    # ------------------------------------------------------------------ #
    def __hash__(self):
        """The hash of the fields, computed once per instance.

        Every warm lookup hashes the catalog's whole constraint set
        (``constraint_signature``, the OCS strata memo), and the generated
        hash would walk every path of every dependency each time.  It is
        kept in the instance dict like ``PCQuery.signature``: two threads
        racing on a fresh instance both compute the same value, and either
        store wins.
        """
        cached = self.__dict__.get("_hash")
        if cached is None:
            fields = (self.universal, self.premise, self.existential, self.conclusion)
            cached = hash((self.name, *fields, self.kind))
            object.__setattr__(self, "_hash", cached)
        return cached

    # ------------------------------------------------------------------ #
    # classification
    # ------------------------------------------------------------------ #
    @property
    def is_tgd(self):
        """``True`` when the dependency has an existential prefix."""
        return bool(self.existential)

    @property
    def is_egd(self):
        """``True`` when the dependency only equates universal paths."""
        return not self.existential

    @property
    def universal_variables(self):
        return tuple(binding.var for binding in self.universal)

    @property
    def existential_variables(self):
        return tuple(binding.var for binding in self.existential)

    def collections_used(self):
        """Return all schema collection names mentioned by the dependency."""
        names = set()
        for binding in self.universal + self.existential:
            names |= schema_names(binding.range)
        for condition in self.premise + self.conclusion:
            names |= schema_names(condition.left) | schema_names(condition.right)
        return names

    def tableau(self):
        """Return the tableau ``T(c)``: all bindings plus all conditions.

        Used by the off-line constraint stratification (Algorithm C.1), which
        looks for homomorphisms between a constraint and the tableau of
        another.
        """
        return (self.universal + self.existential, self.premise + self.conclusion)

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #
    def validate(self):
        """Check well-formedness; raise :class:`ConstraintError` on violations."""
        seen = set()
        for binding in self.universal:
            if binding.var in seen:
                raise ConstraintError(f"{self.name}: variable {binding.var!r} bound twice")
            unknown = path_variables(binding.range) - seen
            if unknown:
                raise ConstraintError(
                    f"{self.name}: range of {binding.var!r} references unknown variables {sorted(unknown)}"
                )
            seen.add(binding.var)
        for condition in self.premise:
            unknown = (path_variables(condition.left) | path_variables(condition.right)) - seen
            if unknown:
                raise ConstraintError(
                    f"{self.name}: premise {condition} references unknown variables {sorted(unknown)}"
                )
        for binding in self.existential:
            if binding.var in seen:
                raise ConstraintError(f"{self.name}: variable {binding.var!r} bound twice")
            unknown = path_variables(binding.range) - seen
            if unknown:
                raise ConstraintError(
                    f"{self.name}: range of {binding.var!r} references unknown variables {sorted(unknown)}"
                )
            seen.add(binding.var)
        for condition in self.conclusion:
            unknown = (path_variables(condition.left) | path_variables(condition.right)) - seen
            if unknown:
                raise ConstraintError(
                    f"{self.name}: conclusion {condition} references unknown variables {sorted(unknown)}"
                )
        if not self.existential and not self.conclusion:
            raise ConstraintError(f"{self.name}: dependency has neither existentials nor conclusions")
        return self

    # ------------------------------------------------------------------ #
    # renaming
    # ------------------------------------------------------------------ #
    def rename_variables(self, mapping):
        """Return a copy with variables renamed according to ``mapping``."""
        from repro.lang.ast import Var, substitute

        path_mapping = {old: Var(new) for old, new in mapping.items()}

        def rename_binding(binding):
            return Binding(
                mapping.get(binding.var, binding.var),
                substitute(binding.range, path_mapping),
            )

        return Dependency(
            self.name,
            tuple(rename_binding(binding) for binding in self.universal),
            tuple(condition.substitute(path_mapping) for condition in self.premise),
            tuple(rename_binding(binding) for binding in self.existential),
            tuple(condition.substitute(path_mapping) for condition in self.conclusion),
            self.kind,
        )


@dataclass(frozen=True)
class Skeleton:
    """A pair of complementary inclusion constraints describing one structure.

    Skeletons are the restricted constraint class for which OQF is complete
    (Theorem 3.2): the forward constraint maps logical collections into the
    physical structure and the backward constraint maps the structure back.
    Indexes, materialized views, ASRs and GMAPs are all skeletons.
    """

    name: str
    forward: Dependency
    backward: Dependency
    structure: object | None = None

    @property
    def constraints(self):
        """Return the two constraints as a tuple (forward, backward)."""
        return (self.forward, self.backward)

    def physical_collections(self):
        """Return the physical collection names introduced by this skeleton."""
        names = set()
        for binding in self.forward.existential:
            names |= schema_names(binding.range)
        return names


def make_equalities(pairs):
    """Convenience: build a tuple of :class:`Eq` from ``(left, right)`` pairs."""
    return tuple(Eq(left, right) for left, right in pairs)


__all__ = ["Dependency", "Skeleton", "make_equalities"]
