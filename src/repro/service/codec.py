"""The data-only session codec: one warm session as one JSON document.

Snapshots, the shared snapshot store and the fleet ``sync`` op all move a
session's warm state — its exact constraint set, every chase-cache entry
(query signature -> fixpoint, with the fixpoint's restriction table) and
every containment verdict — as this document::

    {"label": "12c-1a2b3c4d", "constraints_digest": "<digest>",
     "nodes": [["s", "R"], ["v", "r"], ["b", "r", 0], ...],
     "constraints": [<dependency>, ...],
     "caches": [[[<dependency>, ...], [[<signature>, <query>], ...]], ...],
     "restrictions": [[<query>, [<kept variable>, ...],
                       [[<label>, <path>], ...], <query> or null], ...],
     "verdicts": [[<signature>, <signature>, true or false], ...]}

Every ``<kind>`` is an integer index into ``nodes``, an interned table in
which a node is ``[tag, field, ...]`` (:data:`NODES` lists each tag's
fields) and refers only to earlier nodes, so a shared sub-term is written
once and the table decodes in one forward pass.  A ``signature`` node is a
query's cache/memo key (:meth:`~repro.cq.query.PCQuery.signature`).

The decoder is the trust boundary for bytes read from a socket or a
snapshot file.  It takes only ``json``-parsed data, builds nothing but the
classes in :data:`NODES`, and raises :class:`~repro.errors.CodecError` for
anything else: an unknown tag or key, a wrong field count, a reference
that is not a backward integer index to a node of the expected kind
(booleans are not integers here), a name that is not a string, a constant
that is not a scalar, or a path nested deeper than
:data:`~repro.lang.ast.MAX_PATH_DEPTH`.
The advertised digest is returned unchecked: the service's merge path
recomputes it from the decoded constraint set.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cq.query import PCQuery
from repro.errors import CodecError
from repro.lang.ast import MAX_PATH_DEPTH, Attr, Binding, Const, Dom, Eq, Lookup, SchemaRef, Var
from repro.schema.constraints import Dependency


def _signature(bindings, conditions, output):
    return (frozenset(bindings), frozenset(conditions), frozenset(output))


#: tag -> (node kind, class, fields).  A field is ``"name"`` (a string),
#: ``"scalar"`` (a string, integer, float or boolean), ``"outputs"`` (a list
#: of ``[label, path]`` pairs), a node kind (one reference) or ``[kind]``
#: (a list of references).
NODES = {
    "v": ("path", Var, ("name",)),
    "c": ("path", Const, ("scalar",)),
    "s": ("path", SchemaRef, ("name",)),
    "a": ("path", Attr, ("path", "name")),
    "l": ("path", Lookup, ("path", "path")),
    "d": ("path", Dom, ("path",)),
    "e": ("equality", Eq, ("path", "path")),
    "b": ("binding", Binding, ("name", "path")),
    "D": ("dependency", Dependency, ("name", ["binding"], ["equality"], ["binding"], ["equality"], "name")),
    "q": ("query", PCQuery, ("outputs", ["binding"], ["equality"])),
    "k": ("signature", _signature, (["binding"], ["equality"], "outputs")),
}
_FIELDS = {"label", "constraints_digest", "nodes", "constraints", "caches", "restrictions", "verdicts"}
_SCALARS = (str, int, float, bool)


@dataclass(frozen=True)
class Session:
    """One session's warm state, as encoded and as decoded.

    ``caches`` holds one ``(dependencies, entries)`` pair per chase cache:
    its exact dependency list and its ``{query signature: fixpoint}``
    entries in LRU order.  ``verdicts`` holds ``((source signature, target
    signature), verdict)`` pairs.  Decoding returns tuples throughout.
    """

    label: str
    constraints_digest: str
    constraints: tuple
    caches: tuple | list
    verdicts: tuple | list


# ---------------------------------------------------------------------- #
# encoding
# ---------------------------------------------------------------------- #
class _Encoder:
    """Builds the node table.  Live objects are memoised by identity (they
    are shared heavily between fixpoints and their restrictions); nodes
    are interned by content, constants by type too, because ``1``, ``1.0``
    and ``True`` compare equal but print differently."""

    def __init__(self):
        self.nodes = []
        self._interned = {}
        self._visited = {}  # id(obj) -> (obj, index); holding obj pins the id
        self._tabled = []  # (query, index) pairs whose restrictions are unwritten

    def _intern(self, key, node):
        index = self._interned.get(key)
        if index is None:
            index = self._interned[key] = len(self.nodes)
            self.nodes.append(node)
        return index

    def ref(self, obj):
        seen = self._visited.get(id(obj))
        if seen is not None:
            return seen[1]
        if type(obj) is Const:
            if type(obj.value) not in _SCALARS:
                raise CodecError(f"cannot encode a {type(obj.value).__name__} constant")
            index = self._intern(("c", type(obj.value), obj.value), ["c", obj.value])
        else:
            node = self._node(obj)
            index = self._intern(_hashable(node), node)
        self._visited[id(obj)] = (obj, index)
        if type(obj) is PCQuery and obj.__dict__.get("_restrictions"):
            self._tabled.append((obj, index))
        return index

    def refs(self, objs):
        return [self.ref(obj) for obj in objs]

    def outputs(self, pairs):
        return [[label, self.ref(path)] for label, path in pairs]

    def _node(self, obj):
        kind = type(obj)
        if kind is Var or kind is SchemaRef:
            return ["v" if kind is Var else "s", obj.name]
        if kind is Attr:
            return ["a", self.ref(obj.base), obj.name]
        if kind is Lookup:
            return ["l", self.ref(obj.dictionary), self.ref(obj.key)]
        if kind is Dom:
            return ["d", self.ref(obj.base)]
        if kind is Eq:
            return ["e", self.ref(obj.left), self.ref(obj.right)]
        if kind is Binding:
            return ["b", obj.var, self.ref(obj.range)]
        if kind is Dependency:
            parts = (obj.universal, obj.premise, obj.existential, obj.conclusion)
            return ["D", obj.name, *map(self.refs, parts), obj.kind]
        if kind is PCQuery:
            return ["q", self.outputs(obj.output), self.refs(obj.bindings), self.refs(obj.conditions)]
        raise CodecError(f"cannot encode {kind.__name__}")

    def signature(self, signature):
        bindings, conditions, output = signature
        node = ["k", sorted(self.refs(bindings)), sorted(self.refs(conditions)), sorted(self.outputs(output))]
        return self._intern(_hashable(node), node)

    def restrictions(self):
        """Every visited query's restriction table, each copied with one
        ``dict()`` call (requests may still be filling it).  Encoding a
        restriction can visit a query with its own table: a worklist."""
        records = []
        while self._tabled:
            query, index = self._tabled.pop()
            for (keep, extra), result in dict(query.__dict__["_restrictions"]).items():
                target = None if result is None else self.ref(result)
                records.append([index, sorted(keep), self.outputs(extra), target])
        return records


def _hashable(node):
    return tuple(_hashable(field) if type(field) is list else field for field in node)


def encode_session(session):
    """Encode a :class:`Session` as a JSON-ready document (see module doc)."""
    encoder = _Encoder()
    constraints = encoder.refs(session.constraints)
    caches = [
        [
            encoder.refs(dependencies),
            [[encoder.signature(key), encoder.ref(fixpoint)] for key, fixpoint in entries.items()],
        ]
        for dependencies, entries in session.caches
    ]
    verdicts = [
        [encoder.signature(source), encoder.signature(target), verdict]
        for (source, target), verdict in session.verdicts
    ]
    return {
        "label": session.label,
        "constraints_digest": session.constraints_digest,
        "nodes": encoder.nodes,
        "constraints": constraints,
        "caches": caches,
        "restrictions": encoder.restrictions(),
        "verdicts": verdicts,
    }


# ---------------------------------------------------------------------- #
# decoding
# ---------------------------------------------------------------------- #
def _list(value, size=None):
    if type(value) is not list or (size is not None and len(value) != size):
        raise CodecError(f"expected a list of {size or 'any'} items, got {type(value).__name__}")
    return value


def _name(value):
    if type(value) is not str:
        raise CodecError(f"expected a string, got {type(value).__name__}")
    return value


class _Decoder:
    """Rebuilds the node table, checking every field as it goes."""

    def __init__(self, nodes):
        self.objects, self.kinds, self.depths = [], [], []
        for position, node in enumerate(_list(nodes)):
            try:
                self._load(node)
            except CodecError as error:
                raise CodecError(f"node {position}: {error}") from None

    def ref(self, value, kind):
        if type(value) is not int or not 0 <= value < len(self.objects) or self.kinds[value] != kind:
            raise CodecError(f"expected a backward reference to a {kind} node")
        return self.objects[value]

    def refs(self, values, kind):
        return tuple(self.ref(value, kind) for value in _list(values))

    def outputs(self, values):
        pairs = (_list(value, 2) for value in _list(values))
        return tuple((_name(label), self.ref(path, "path")) for label, path in pairs)

    def field(self, value, spec):
        if spec == "name":
            return _name(value)
        if spec == "scalar":
            if type(value) not in _SCALARS:
                raise CodecError(f"a constant must be a scalar, got {type(value).__name__}")
            return value
        if spec == "outputs":
            return self.outputs(value)
        if type(spec) is list:
            return self.refs(value, spec[0])
        return self.ref(value, spec)

    def _load(self, node):
        if type(node) is not list or not node or type(node[0]) is not str or node[0] not in NODES:
            raise CodecError("a node must be a list starting with a known tag")
        kind, build, specs = NODES[node[0]]
        fields = node[1:]
        if len(fields) != len(specs):
            raise CodecError(f"tag {node[0]!r} takes {len(specs)} fields, got {len(fields)}")
        obj = build(*(self.field(value, spec) for value, spec in zip(fields, specs)))
        depth = 0
        if kind == "path":
            children = (self.depths[value] for value, spec in zip(fields, specs) if spec == "path")
            depth = 1 + max(children, default=0)
            if depth > MAX_PATH_DEPTH:
                raise CodecError(f"path deeper than {MAX_PATH_DEPTH}")
        self.objects.append(obj)
        self.kinds.append(kind)
        self.depths.append(depth)


def decode_session(document):
    """Decode one ``json``-parsed session document into a :class:`Session`.

    Raises :class:`~repro.errors.CodecError` for anything that is not a
    well-formed session document (see the module docstring).
    """
    if type(document) is not dict or document.keys() != _FIELDS:
        raise CodecError(f"a session document is an object with the fields {sorted(_FIELDS)}")
    decoder = _Decoder(document["nodes"])
    caches = []
    for cache in _list(document["caches"]):
        dependencies, entries = _list(cache, 2)
        table = {}
        for key, fixpoint in (_list(entry, 2) for entry in _list(entries)):
            table[decoder.ref(key, "signature")] = decoder.ref(fixpoint, "query")
        caches.append((decoder.refs(dependencies, "dependency"), table))
    for record in _list(document["restrictions"]):
        query, keep, extra, result = _list(record, 4)
        key = (frozenset(map(_name, _list(keep))), decoder.outputs(extra))
        table = decoder.ref(query, "query").__dict__.setdefault("_restrictions", {})
        table[key] = None if result is None else decoder.ref(result, "query")
    verdicts = []
    for source, target, verdict in (_list(record, 3) for record in _list(document["verdicts"])):
        if type(verdict) is not bool:
            raise CodecError(f"a verdict must be true or false, got {type(verdict).__name__}")
        verdicts.append(((decoder.ref(source, "signature"), decoder.ref(target, "signature")), verdict))
    return Session(
        label=_name(document["label"]),
        constraints_digest=_name(document["constraints_digest"]),
        constraints=decoder.refs(document["constraints"], "dependency"),
        caches=tuple(caches),
        verdicts=tuple(verdicts),
    )


__all__ = ["NODES", "Session", "decode_session", "encode_session"]
