"""Abstract syntax shared by queries, plans and constraints.

The central notion is the *path expression* (:class:`Path`), which denotes a
value computed from variables, schema collections, attribute projection,
dictionary lookup and dictionary domain.  Queries and dependencies are built
out of three ingredients:

* :class:`Binding` -- ``x in P`` binds a variable to the elements of a
  collection-valued path (a relation, ``dom M``, ``M[k]``, or a set-valued
  attribute such as ``M[k].N``).
* :class:`Eq` -- an equality condition between two paths.
* :class:`SelectFromWhere` -- the surface select-from-where form with a
  struct-valued output.

All AST nodes are immutable (frozen dataclasses) and hashable, which the
congruence-closure and memoisation machinery relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Deepest path accepted from outside the program, by the parser and by the
#: session codec.  A path's depth is 1 for a variable, constant or schema
#: name, plus 1 for each attribute, lookup or ``dom`` step above its deepest
#: child.  Real paths are a handful of steps; the bound keeps hashing and
#: printing a path far from the interpreter's recursion limit.
MAX_PATH_DEPTH = 64


class Path:
    """Base class for path expressions.

    Subclasses: :class:`Var`, :class:`Const`, :class:`SchemaRef`,
    :class:`Attr`, :class:`Lookup`, :class:`Dom`.
    """

    __slots__ = ()

    def attr(self, name):
        """Return the projection of this path on attribute ``name``."""
        return Attr(self, name)

    def lookup(self, key):
        """Return the dictionary lookup ``self[key]``."""
        return Lookup(self, key)

    @property
    def dom(self):
        """Return ``dom self`` (the set of keys of a dictionary path)."""
        return Dom(self)


@dataclass(frozen=True)
class Var(Path):
    """A query or constraint variable."""

    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Const(Path):
    """A literal constant (number, string or boolean)."""

    value: object

    def __str__(self):
        if isinstance(self.value, str):
            return repr(self.value)
        return str(self.value)


@dataclass(frozen=True)
class SchemaRef(Path):
    """A reference to a named schema collection (relation, view, dictionary)."""

    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Attr(Path):
    """Attribute projection ``base.attr``."""

    base: Path
    name: str

    def __str__(self):
        return f"{self.base}.{self.name}"


@dataclass(frozen=True)
class Lookup(Path):
    """Dictionary lookup ``dictionary[key]``."""

    dictionary: Path
    key: Path

    def __str__(self):
        return f"{self.dictionary}[{self.key}]"


@dataclass(frozen=True)
class Dom(Path):
    """``dom base``: the set of keys on which a dictionary is defined."""

    base: Path

    def __str__(self):
        return f"dom {self.base}"


@dataclass(frozen=True)
class Eq:
    """An equality condition between two paths."""

    left: Path
    right: Path

    def __str__(self):
        return f"{self.left} = {self.right}"

    def normalized(self):
        """Return an equivalent :class:`Eq` with a canonical side order.

        Useful for deduplicating conditions: ``Eq(a, b)`` and ``Eq(b, a)``
        normalise to the same object.
        """
        left_key = _path_sort_key(self.left)
        right_key = _path_sort_key(self.right)
        if right_key < left_key:
            return Eq(self.right, self.left)
        return self

    def substitute(self, mapping):
        """Return the condition with variables replaced per ``mapping``."""
        return Eq(substitute(self.left, mapping), substitute(self.right, mapping))


@dataclass(frozen=True)
class Binding:
    """A range binding ``var in range_path`` from a from-clause or a prefix."""

    var: str
    range: Path

    def __str__(self):
        return f"{self.range} {self.var}"

    def substitute(self, mapping):
        """Return the binding with variables in the range replaced."""
        return Binding(self.var, substitute(self.range, mapping))


@dataclass(frozen=True)
class SelectFromWhere:
    """The select-from-where surface form of a path-conjunctive query.

    Attributes
    ----------
    output:
        Tuple of ``(label, path)`` pairs -- the ``select struct(...)`` clause.
    bindings:
        Tuple of :class:`Binding` -- the ``from`` clause, in order.
    conditions:
        Tuple of :class:`Eq` -- the conjunctive ``where`` clause.
    """

    output: tuple
    bindings: tuple
    conditions: tuple

    def __str__(self):
        from repro.lang.pretty import format_query

        return format_query(self)


def substitute(path, mapping):
    """Replace variables in ``path`` according to ``mapping``.

    Parameters
    ----------
    path:
        The path expression to rewrite.
    mapping:
        A mapping from variable *names* to replacement :class:`Path` objects.
        Variables absent from the mapping are left untouched.
    """
    if isinstance(path, Var):
        return mapping.get(path.name, path)
    if isinstance(path, (Const, SchemaRef)):
        return path
    if isinstance(path, Attr):
        return Attr(substitute(path.base, mapping), path.name)
    if isinstance(path, Lookup):
        return Lookup(substitute(path.dictionary, mapping), substitute(path.key, mapping))
    if isinstance(path, Dom):
        return Dom(substitute(path.base, mapping))
    raise TypeError(f"not a path expression: {path!r}")


def path_variables(path):
    """Return the set of variable names occurring in ``path``."""
    if isinstance(path, Var):
        return {path.name}
    if isinstance(path, (Const, SchemaRef)):
        return set()
    if isinstance(path, Attr):
        return path_variables(path.base)
    if isinstance(path, Lookup):
        return path_variables(path.dictionary) | path_variables(path.key)
    if isinstance(path, Dom):
        return path_variables(path.base)
    raise TypeError(f"not a path expression: {path!r}")


def path_root(path):
    """Return the root of a left-linear path.

    For ``r.A.B`` this is the variable ``r``; for ``M[k].N`` it is the schema
    reference ``M``.  Lookups contribute their dictionary side only; the key
    side is a separate sub-path.
    """
    if isinstance(path, (Var, Const, SchemaRef)):
        return path
    if isinstance(path, Attr):
        return path_root(path.base)
    if isinstance(path, Lookup):
        return path_root(path.dictionary)
    if isinstance(path, Dom):
        return path_root(path.base)
    raise TypeError(f"not a path expression: {path!r}")


def subpaths(path):
    """Yield ``path`` and every sub-path it contains (post-order)."""
    if isinstance(path, Attr):
        yield from subpaths(path.base)
    elif isinstance(path, Lookup):
        yield from subpaths(path.dictionary)
        yield from subpaths(path.key)
    elif isinstance(path, Dom):
        yield from subpaths(path.base)
    yield path


def schema_names(path):
    """Return the set of schema collection names referenced by ``path``."""
    return {p.name for p in subpaths(path) if isinstance(p, SchemaRef)}


def _path_sort_key(path):
    """A total order on paths used only to canonicalise condition sides."""
    return (path.__class__.__name__, str(path))
