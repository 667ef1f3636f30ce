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

Path nodes are hash-consed.  Constructing a :class:`Var`, :class:`Const`,
:class:`SchemaRef`, :class:`Attr`, :class:`Lookup` or :class:`Dom` returns
the one live node with that class and those fields, so two paths are equal
exactly when they are the same object: ``==`` is identity and ``hash`` is
by id.  The congruence closure's term table, the homomorphism search and
``restrict_to`` therefore compare and hash paths in constant time.  A node
keeps what depends on it alone: its text, its variables and its schema
names.  Nodes are immutable, and must be built only through their classes;
pickling and copying do so.  A :class:`Const` is keyed by its value's type
too, so ``1``, ``1.0`` and ``true`` are three constants.

:class:`Eq`, :class:`Binding` and :class:`SelectFromWhere` are frozen
dataclasses over path nodes, compared and hashed by their fields.
"""

from __future__ import annotations

import os
import threading
import weakref
from _weakref import _remove_dead_weakref
from dataclasses import dataclass

#: Deepest path accepted from outside the program, by the parser and by the
#: session codec.  A path's depth is 1 for a variable, constant or schema
#: name, plus 1 for each attribute, lookup or ``dom`` step above its deepest
#: child.  Real paths are a handful of steps; the bound keeps the recursive
#: walks over a path (substitution, interning it in a congruence closure)
#: far from the interpreter's recursion limit.
MAX_PATH_DEPTH = 64


_NO_NAMES = frozenset()


def _absent():
    """What a table lookup that finds no entry calls: like a dead reference, it returns ``None``."""
    return None


class _InternTable:
    """The live nodes of one path class, each under the key of its fields.

    The table holds its nodes weakly.  Each entry is a weak reference whose
    callback removes the entry when its node dies, so an entry never
    outlives its node and the table keeps no node alive.

    ``find(key, _absent)()`` returns the live node under ``key``, or
    ``None``.  ``find`` is the dictionary's own ``get`` and takes no lock:
    an entry is replaced only once its node is dead, so a live node found
    without the lock is the one node of its key.  :meth:`add` takes the
    lock, so threads that build one structure at the same time get one
    node.  The removal callback takes no lock: a node can die in any
    thread at any point, also inside :meth:`add` when a build starts the
    cycle collector, and the callback deletes its entry only while the
    entry still holds a dead reference, in one atomic step (as
    :class:`weakref.WeakValueDictionary` does).
    """

    __slots__ = ("_lock", "_refs", "find")

    def __init__(self):
        self._lock = threading.Lock()
        self._refs = {}
        self.find = self._refs.get
        # A forked child (a process-pool worker) must not inherit the lock
        # held by a parent thread that does not exist in the child.
        os.register_at_fork(after_in_child=self._reset_lock)

    def add(self, key, build, *fields):
        """Return the live node under ``key``, built by ``build(*fields)`` if there is none."""
        with self._lock:
            node = self._refs.get(key, _absent)()
            if node is None:
                node = build(*fields)
                self._refs[key] = weakref.KeyedRef(node, self._discard, key)
            return node

    def _discard(self, ref):
        _remove_dead_weakref(self._refs, ref.key)

    def _reset_lock(self):
        self._lock = threading.Lock()

    def __len__(self):
        return len(self._refs)


_set_field = object.__setattr__


def _node(cls, values, text, variables, schemas):
    """Build a new node of ``cls`` with its fields and its memos."""
    node = object.__new__(cls)
    for name, value in zip(cls._fields, values):
        _set_field(node, name, value)
    _set_field(node, "_text", text)
    _set_field(node, "_variables", variables)
    _set_field(node, "_schemas", schemas)
    return node


def _require_paths(*children):
    for child in children:
        if not isinstance(child, Path):
            raise TypeError(f"not a path expression: {child!r}")


class Path:
    """Base class for path expressions.

    Subclasses: :class:`Var`, :class:`Const`, :class:`SchemaRef`,
    :class:`Attr`, :class:`Lookup`, :class:`Dom`.  Each is interned (see
    the module docstring) and lists its fields in ``_fields``.
    """

    __slots__ = ("_text", "_variables", "_schemas", "__weakref__")
    _fields = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: paths are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}: paths are immutable")

    def __reduce__(self):
        # Pickling and copying rebuild the node through its class, which
        # returns the interned node.
        return (type(self), tuple(getattr(self, name) for name in self._fields))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __str__(self):
        return self._text

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


class Var(Path):
    """A query or constraint variable."""

    __slots__ = ("name",)
    _fields = ("name",)

    def __new__(cls, name):
        node = _VARS.find(name, _absent)()
        return _VARS.add(name, _build_var, name) if node is None else node


class Const(Path):
    """A literal constant (number, string or boolean), interned by type and value."""

    __slots__ = ("value",)
    _fields = ("value",)

    def __new__(cls, value):
        key = (type(value), value)
        node = _CONSTS.find(key, _absent)()
        return _CONSTS.add(key, _build_const, value) if node is None else node


class SchemaRef(Path):
    """A reference to a named schema collection (relation, view, dictionary)."""

    __slots__ = ("name",)
    _fields = ("name",)

    def __new__(cls, name):
        node = _SCHEMA_REFS.find(name, _absent)()
        return _SCHEMA_REFS.add(name, _build_schema_ref, name) if node is None else node


class Attr(Path):
    """Attribute projection ``base.attr``."""

    __slots__ = ("base", "name")
    _fields = ("base", "name")

    def __new__(cls, base, name):
        key = (base, name)
        node = _ATTRS.find(key, _absent)()
        return _ATTRS.add(key, _build_attr, base, name) if node is None else node


class Lookup(Path):
    """Dictionary lookup ``dictionary[key]``."""

    __slots__ = ("dictionary", "key")
    _fields = ("dictionary", "key")

    def __new__(cls, dictionary, key):
        fields = (dictionary, key)
        node = _LOOKUPS.find(fields, _absent)()
        return _LOOKUPS.add(fields, _build_lookup, dictionary, key) if node is None else node


class Dom(Path):
    """``dom base``: the set of keys on which a dictionary is defined."""

    __slots__ = ("base",)
    _fields = ("base",)

    def __new__(cls, base):
        node = _DOMS.find(base, _absent)()
        return _DOMS.add(base, _build_dom, base) if node is None else node


def _build_var(name):
    return _node(Var, (name,), name, frozenset((name,)), _NO_NAMES)


def _build_const(value):
    text = repr(value) if isinstance(value, str) else str(value)
    return _node(Const, (value,), text, _NO_NAMES, _NO_NAMES)


def _build_schema_ref(name):
    return _node(SchemaRef, (name,), name, _NO_NAMES, frozenset((name,)))


def _build_attr(base, name):
    _require_paths(base)
    return _node(Attr, (base, name), f"{base._text}.{name}", base._variables, base._schemas)


def _build_lookup(dictionary, key):
    _require_paths(dictionary, key)
    return _node(
        Lookup,
        (dictionary, key),
        f"{dictionary._text}[{key._text}]",
        dictionary._variables | key._variables,
        dictionary._schemas | key._schemas,
    )


def _build_dom(base):
    _require_paths(base)
    return _node(Dom, (base,), f"dom {base._text}", base._variables, base._schemas)


_VARS = _InternTable()
_CONSTS = _InternTable()
_SCHEMA_REFS = _InternTable()
_ATTRS = _InternTable()
_LOOKUPS = _InternTable()
_DOMS = _InternTable()
#: Every intern table; the sum of their sizes is the number of live path nodes.
_TABLES = (_VARS, _CONSTS, _SCHEMA_REFS, _ATTRS, _LOOKUPS, _DOMS)


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

    A sub-path that no replacement touches is returned as it is, not
    looked up again.
    """
    kind = type(path)
    if kind is Var:
        return mapping.get(path.name, path)
    if kind is Attr:
        base = substitute(path.base, mapping)
        return path if base is path.base else Attr(base, path.name)
    if kind is Lookup:
        dictionary = substitute(path.dictionary, mapping)
        key = substitute(path.key, mapping)
        if dictionary is path.dictionary and key is path.key:
            return path
        return Lookup(dictionary, key)
    if kind is Dom:
        base = substitute(path.base, mapping)
        return path if base is path.base else Dom(base)
    if kind is Const or kind is SchemaRef:
        return path
    raise TypeError(f"not a path expression: {path!r}")


def path_variables(path):
    """Return the frozenset of variable names occurring in ``path`` (kept on the node)."""
    try:
        return path._variables
    except AttributeError:
        raise TypeError(f"not a path expression: {path!r}") from None


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
    """Return the frozenset of schema collection names in ``path`` (kept on the node)."""
    try:
        return path._schemas
    except AttributeError:
        raise TypeError(f"not a path expression: {path!r}") from None


def _path_sort_key(path):
    """A total order on paths used only to canonicalise condition sides."""
    return (type(path).__name__, path._text)
