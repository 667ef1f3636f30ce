"""The catalog: everything the optimizer needs to know about a database.

A :class:`Catalog` bundles the logical schema, the physical schema, the
compiled constraint set and (optionally) statistics.  It is the single object
handed to :class:`repro.chase.optimizer.CBOptimizer` and to the execution
engine's cost model.  The constraint set is compiled once per set of
declarations (:class:`CompiledConstraints`), not once per optimize call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SchemaError
from repro.schema.compile import compile_logical_constraints, compile_structure
from repro.schema.logical import LogicalSchema
from repro.schema.physical import PhysicalSchema


@dataclass
class Statistics:
    """Simple statistics used by the cost model.

    Attributes
    ----------
    cardinalities:
        Mapping from collection name to number of tuples / dictionary entries.
    distinct_values:
        Mapping from ``(collection, attribute)`` to the number of distinct
        values, used to estimate equi-join selectivities.
    default_cardinality:
        Fallback cardinality for collections without an entry.
    """

    cardinalities: dict = field(default_factory=dict)
    distinct_values: dict = field(default_factory=dict)
    default_cardinality: int = 1000

    def cardinality(self, name):
        """Return the (estimated) cardinality of collection ``name``."""
        return self.cardinalities.get(name, self.default_cardinality)

    def set_cardinality(self, name, value):
        self.cardinalities[name] = int(value)

    def distinct(self, name, attribute):
        """Return the number of distinct values of ``name.attribute``."""
        return self.distinct_values.get((name, attribute), max(1, self.cardinality(name) // 10))

    def set_distinct(self, name, attribute, value):
        self.distinct_values[(name, attribute)] = int(value)

    def selectivity(self, name, attribute):
        """Return the estimated selectivity of an equality on ``name.attribute``."""
        return 1.0 / max(1, self.distinct(name, attribute))


@dataclass(frozen=True, eq=False)
class CompiledConstraints:
    """One compile of a catalog's declarations (see :meth:`Catalog.compiled`).

    Attributes
    ----------
    stamp:
        The lengths of the declaration lists this compile read (keys, foreign
        keys, inverses, physical structures, custom dependencies).
    semantic:
        The compiled logical declarations, then the custom dependencies.
    skeletons:
        One skeleton per physical structure, in declaration order.
    extras:
        Structure name -> that structure's extra constraints (a secondary
        index's non-emptiness constraint; empty for every other structure).
    physical:
        Each structure's forward and backward constraint, then its extras.
    constraints:
        ``semantic + physical``: the set chase and backchase use.
    skeleton_names:
        The names of every skeleton's forward and backward constraint.
    """

    stamp: tuple
    semantic: tuple
    skeletons: tuple
    extras: dict
    physical: tuple
    constraints: tuple
    skeleton_names: frozenset

    @classmethod
    def build(cls, stamp, logical, physical_schema, custom):
        """Compile ``logical``'s declarations, then ``custom``, then every structure."""
        semantic = tuple(compile_logical_constraints(logical)) + tuple(custom)
        skeletons, extras, physical = [], {}, []
        for structure in physical_schema.structures.values():
            skeleton, structure_extras = compile_structure(structure)
            skeletons.append(skeleton)
            extras[skeleton.name] = tuple(structure_extras)
            physical.extend(skeleton.constraints)
            physical.extend(structure_extras)
        return cls(
            stamp,
            semantic,
            tuple(skeletons),
            extras,
            tuple(physical),
            semantic + tuple(physical),
            frozenset(dep.name for skeleton in skeletons for dep in skeleton.constraints),
        )


class Catalog:
    """Logical schema + physical schema + constraints + statistics.

    The catalog exposes a small façade so most callers never touch the
    underlying schema objects directly::

        catalog = Catalog()
        catalog.add_relation("R", ["K", "N", "A"], key=["K"])
        catalog.add_key("R", ["K"])
        catalog.add_primary_index("PI_R", "R", ["K"])
        optimizer = CBOptimizer(catalog)

    The constraints are a property of the declarations, not of any query, so
    the catalog compiles them once (:meth:`compiled`) and every constraint
    view below reads that one compile.  Declarations are append-only, so the
    compile is kept with the lengths of the declaration lists it read, and
    any later ``add_*``, through this façade or straight on ``logical`` or
    ``physical``, recompiles on the next read.  The cache takes no lock:
    two threads racing on a stale compile both build equal sets, and either
    store wins.  The lengths are read before compiling, so a compile that
    races a declaration is stored under the older lengths and the next read
    compiles again; it never leaves a stale set behind.
    """

    def __init__(self, logical=None, physical=None, statistics=None):
        self.logical = logical if logical is not None else LogicalSchema()
        self.physical = physical if physical is not None else PhysicalSchema()
        self.statistics = statistics if statistics is not None else Statistics()
        self._custom_constraints = []
        self._compiled = None

    # ------------------------------------------------------------------ #
    # logical schema façade
    # ------------------------------------------------------------------ #
    def add_relation(self, name, attributes, key=()):
        """Declare a relation in the logical schema."""
        return self.logical.add_relation(name, attributes, key)

    def add_class(self, name, attributes=(), set_attributes=()):
        """Declare an OO class (dictionary collection) in the logical schema."""
        return self.logical.add_class(name, attributes, set_attributes)

    def add_key(self, relation_name, attributes):
        """Declare a key constraint."""
        return self.logical.add_key(relation_name, attributes)

    def add_foreign_key(self, relation_name, attributes, target_name, target_attributes):
        """Declare a referential integrity (foreign key) constraint."""
        return self.logical.add_foreign_key(relation_name, attributes, target_name, target_attributes)

    def add_inverse_relationship(self, class_name, forward_attribute, target_class, backward_attribute):
        """Declare an inverse relationship between two classes."""
        return self.logical.add_inverse_relationship(
            class_name, forward_attribute, target_class, backward_attribute
        )

    # ------------------------------------------------------------------ #
    # physical schema façade
    # ------------------------------------------------------------------ #
    def add_primary_index(self, name, relation, attributes):
        """Declare a primary index."""
        self._require_collection(relation)
        return self.physical.add_primary_index(name, relation, attributes)

    def add_secondary_index(self, name, relation, attributes):
        """Declare a secondary index."""
        self._require_collection(relation)
        return self.physical.add_secondary_index(name, relation, attributes)

    def add_materialized_view(self, name, definition):
        """Declare a materialized view defined by a :class:`PCQuery`."""
        return self.physical.add_materialized_view(name, definition)

    def add_access_support_relation(self, name, definition):
        """Declare an access support relation defined by a navigation query."""
        return self.physical.add_access_support_relation(name, definition)

    def add_dependency(self, dependency):
        """Register a hand-written dependency (validated)."""
        self._custom_constraints.append(dependency.validate())
        return dependency

    def _require_collection(self, name):
        if name not in self.logical:
            raise SchemaError(f"unknown collection {name!r}")

    # ------------------------------------------------------------------ #
    # compiled constraint views
    # ------------------------------------------------------------------ #
    def compiled(self):
        """Return the :class:`CompiledConstraints` of the current declarations.

        Compiled on the first read and again after any declaration is added;
        every other read returns the same object.
        """
        stamp = (
            len(self.logical.keys),
            len(self.logical.foreign_keys),
            len(self.logical.inverses),
            len(self.physical.structures),
            len(self._custom_constraints),
        )
        compiled = self._compiled
        if compiled is None or compiled.stamp != stamp:
            compiled = CompiledConstraints.build(
                stamp, self.logical, self.physical, self._custom_constraints
            )
            self._compiled = compiled
        return compiled

    def skeletons(self):
        """Return the skeleton (constraint-pair) of every physical structure."""
        return list(self.compiled().skeletons)

    def physical_constraints(self):
        """Return every constraint describing a physical structure."""
        return list(self.compiled().physical)

    def semantic_constraints(self):
        """Return every semantic integrity constraint (including custom ones)."""
        return list(self.compiled().semantic)

    def constraints(self):
        """Return the full constraint set used by chase and backchase."""
        return self.compiled().constraints

    def constraint(self, name):
        """Return the constraint with the given name.

        Raises
        ------
        SchemaError
            If no constraint has that name.
        """
        for dependency in self.constraints():
            if dependency.name == name:
                return dependency
        raise SchemaError(f"unknown constraint {name!r}")

    # ------------------------------------------------------------------ #
    # naming helpers
    # ------------------------------------------------------------------ #
    def is_physical_name(self, name):
        """Return ``True`` when ``name`` denotes a physical structure."""
        return name in self.physical

    def is_logical_name(self, name):
        """Return ``True`` when ``name`` denotes a logical collection."""
        return name in self.logical

    def collection_names(self):
        """Return every collection name known to the catalog."""
        return tuple(self.logical.collection_names()) + tuple(self.physical.names())


__all__ = ["Catalog", "CompiledConstraints", "Statistics"]
