"""The trust boundary: no byte read from a socket or a snapshot file runs code.

* No module under ``src/repro`` imports ``pickle``.
* A pickle whose unpickling would create a marker file, offered through
  each untrusted path — a ``--snapshot`` file, a snapshot-store file, a
  ``sync`` merge entry over a real socket — ends in a typed, counted
  recovery or rejection, and the marker never appears.
* Fuzzing (Hypothesis): byte flips and truncations of a snapshot raise
  only :class:`~repro.errors.SnapshotError`; structural mutations of a
  session document are counted rejections and the service keeps serving;
  :func:`~repro.service.protocol.decode_request` raises only
  ``ValueError`` / ``TypeError``.
* A bad request line gets an error record and the next line is still
  served, over a socket and in ``batch``.
* Fuzzing the parser (Hypothesis): mutated queries, dependencies and paths,
  and paths nested deeper than :data:`~repro.lang.ast.MAX_PATH_DEPTH`,
  raise only :class:`~repro.errors.ParseError`.
"""

import ast
import base64
import copy
import hashlib
import json
import pickle
import socket
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.chase.implication import constraints_digest
from repro.cli import main
from repro.errors import CodecError, ParseError, SnapshotError
from repro.lang.ast import MAX_PATH_DEPTH
from repro.lang.parser import parse_dependency, parse_path, parse_query
from repro.lang.pretty import format_dependency
from repro.service import OptimizerClient, OptimizerServer, OptimizerService
from repro.service.codec import NODES, decode_session
from repro.service.fleet import SnapshotStore
from repro.service.protocol import WORKLOAD_BUILDERS, decode_request
from repro.service.snapshots import SNAPSHOT_VERSION, read_snapshot
from repro.workloads import build_ec1, build_ec2, build_ec3

JOIN_TIMEOUT = 120.0
FUZZ = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class _Exploit:
    """Unpickling this creates ``marker``: a stand-in for arbitrary code."""

    def __init__(self, marker):
        self.marker = str(marker)

    def __reduce__(self):
        return (open, (self.marker, "w"))


def _exploit(marker):
    return pickle.dumps(_Exploit(marker))


def _signed(body):
    """``body`` behind a current, correctly checksummed snapshot header."""
    header = {
        "format": "repro-snapshot",
        "version": SNAPSHOT_VERSION,
        "body_sha256": hashlib.sha256(body).hexdigest(),
    }
    return json.dumps(header).encode("utf-8") + b"\n" + body


def _serve_one(service, workload):
    return service.submit(workload.query, catalog=workload.catalog).result(
        timeout=JOIN_TIMEOUT
    )


# ---------------------------------------------------------------------- #
# no pickle anywhere in the program
# ---------------------------------------------------------------------- #
_PICKLERS = {"pickle", "_pickle", "shelve"}


def test_no_module_imports_pickle():
    offenders = []
    for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            elif (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None))
                in ("__import__", "import_module")
                and node.args
                and isinstance(node.args[0], ast.Constant)
            ):
                names = [str(node.args[0].value)]
            else:
                continue
            offenders += [
                f"{path}:{node.lineno}: {name}"
                for name in names
                if name.split(".")[0] in _PICKLERS
            ]
    assert offenders == []


# ---------------------------------------------------------------------- #
# a pickle through every untrusted path never runs
# ---------------------------------------------------------------------- #
class TestPickleNeverRuns:
    def test_snapshot_file_is_a_counted_recovery(self, tmp_path):
        marker = tmp_path / "marker"
        path = tmp_path / "warm.snap"
        workload = build_ec2(1, 3, 1)
        # A bare pickle (an old-format snapshot), then a pickle body behind
        # a valid, correctly checksummed header.
        for data in (_exploit(marker), _signed(_exploit(marker))):
            path.write_bytes(data)
            with OptimizerService(shards=1, workers=1) as service:
                restored, error = service.recover_caches(path)
                assert _serve_one(service, workload).ok
                stats = service.stats()
            assert restored == 0
            assert isinstance(error, SnapshotError) and error.reason == "corrupt"
            assert stats.recoveries == 1
        assert not marker.exists()

    def test_snapshot_store_file_is_a_counted_recovery(self, tmp_path):
        marker = tmp_path / "marker"
        workload = build_ec2(1, 3, 1)
        store = SnapshotStore(tmp_path / "store")
        path = Path(store.path_for(constraints_digest(workload.catalog.constraints())))
        path.parent.mkdir(parents=True)
        path.write_bytes(_exploit(marker))
        with OptimizerService(shards=1, workers=1) as service:
            restored, failures = store.restore(service)
            assert _serve_one(service, workload).ok
            stats = service.stats()
        assert (restored, failures) == (0, 1)
        assert stats.recoveries == 1
        assert not marker.exists()

    def test_sync_merge_over_a_socket_is_a_counted_rejection(self, tmp_path):
        marker = tmp_path / "marker"
        workload = build_ec2(1, 3, 1)
        digest = constraints_digest(workload.catalog.constraints())
        data = base64.b64encode(_exploit(marker)).decode("ascii")
        entries = [
            # the old wire shape: a base64 pickle
            {"digest": digest, "label": "x", "data": data},
            # pickle bytes inside a well-formed document are inert data
            {
                "label": "x",
                "constraints_digest": digest,
                "nodes": [["c", data]],
                "constraints": [],
                "caches": [],
                "restrictions": [],
                "verdicts": [],
            },
        ]
        with OptimizerServer(shards=1, workers=1) as server:
            with OptimizerClient(port=server.port) as client:
                merged, rejected = client.sync_merge(entries, timeout=JOIN_TIMEOUT)
                response = client.request(
                    {"id": "after", "workload": "ec2",
                     "params": {"stars": 1, "corners": 3, "views": 1}},
                    timeout=JOIN_TIMEOUT,
                )
            stats = server.service.stats()
        assert (merged, rejected) == (0, len(entries))
        assert stats.sync_rejected == len(entries)
        assert response["status"] == "ok"
        assert not marker.exists()


# ---------------------------------------------------------------------- #
# fuzzing the snapshot reader
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def warm(tmp_path_factory):
    """A warm service (kept serving), its snapshot bytes and its document."""
    workload = build_ec2(1, 3, 1)
    directory = tmp_path_factory.mktemp("warm")
    with OptimizerService(shards=1, workers=1) as service:
        _serve_one(service, workload).raise_for_error()
        service.save_caches(directory / "warm.snap")
        yield SimpleNamespace(
            service=service,
            workload=workload,
            directory=directory,
            snapshot=(directory / "warm.snap").read_bytes(),
            document=json.loads(json.dumps(service.export_sessions()[0])),
        )


@FUZZ
@given(data=st.data())
def test_snapshot_byte_flips_and_truncations_raise_only_snapshot_error(warm, data):
    damaged = bytearray(warm.snapshot)
    if data.draw(st.booleans(), label="truncate"):
        damaged = damaged[: data.draw(st.integers(0, len(damaged) - 1), label="length")]
    else:
        for _ in range(data.draw(st.integers(1, 3), label="flips")):
            position = data.draw(st.integers(0, len(damaged) - 1), label="position")
            damaged[position] ^= data.draw(st.integers(1, 255), label="mask")
    path = warm.directory / "damaged.snap"
    path.write_bytes(bytes(damaged))
    try:
        sessions = read_snapshot(path)
    except SnapshotError:
        return
    # Only a flip in the header's insignificant whitespace can survive.
    assert len(sessions) == 1


# ---------------------------------------------------------------------- #
# fuzzing the session decoder through merge_sync
# ---------------------------------------------------------------------- #
_KIND = {tag: kind for tag, (kind, _, _) in NODES.items()}
#: Field layout per tag: a kind is one reference, ``[kind]`` a list of
#: references, ``"outputs"`` a list of ``[label, path]`` pairs.
_LAYOUT = {tag: fields for tag, (_, _, fields) in NODES.items()}


def _slots(document):
    """Every mutable field: ``(container, key, spec, limit)``.

    ``spec`` is a node kind for a reference, ``"name"`` or ``"scalar"``;
    ``limit`` is the first index a reference there may not use.
    """
    nodes = document["nodes"]
    slots = [(document, "label", "name", None), (document, "constraints_digest", "name", None)]

    def add(container, key, spec, limit):
        value = container[key]
        if spec == "outputs":
            for pair in value:
                slots.append((pair, 0, "name", limit))
                slots.append((pair, 1, "path", limit))
        elif isinstance(spec, list):
            for index in range(len(value)):
                slots.append((value, index, spec[0], limit))
        else:
            slots.append((container, key, spec, limit))

    for position, node in enumerate(nodes):
        for field, spec in enumerate(_LAYOUT[node[0]], start=1):
            add(node, field, spec, position)
    end = len(nodes)
    for index in range(len(document["constraints"])):
        add(document["constraints"], index, "dependency", end)
    for dependencies, entries in document["caches"]:
        add([dependencies], 0, ["dependency"], end)
        for entry in entries:
            add(entry, 0, "signature", end)
            add(entry, 1, "query", end)
    for record in document["restrictions"]:
        add(record, 0, "query", end)
        add(record, 1, ["name"], end)
        add(record, 2, "outputs", end)
        if record[3] is not None:
            add(record, 3, "query", end)
    for record in document["verdicts"]:
        add(record, 0, "signature", end)
        add(record, 1, "signature", end)
    return slots


_CONTAINERS = st.one_of(
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)
_NOT_STRINGS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(allow_nan=False), _CONTAINERS
)
_NOT_SCALARS = st.one_of(st.none(), _CONTAINERS)


def _mutate(data, document):
    """Apply one structural mutation that makes ``document`` invalid."""
    nodes = document["nodes"]
    mutation = data.draw(
        st.sampled_from(
            ["tag", "forward", "negative", "bool", "range", "kind", "name", "constant",
             "verdict", "missing", "extra", "section"]
        ),
        label="mutation",
    )
    slots = _slots(document)
    refs = [slot for slot in slots if slot[2] not in ("name", "scalar")]
    if mutation == "tag":
        node = data.draw(st.sampled_from(nodes), label="node")
        node[0] = data.draw(st.text(max_size=3).filter(lambda tag: tag not in _KIND), label="tag")
    elif mutation == "forward":
        in_nodes = [slot for slot in refs if slot[3] < len(nodes)]
        container, key, _, limit = data.draw(st.sampled_from(in_nodes), label="slot")
        container[key] = data.draw(st.integers(limit, limit + 3), label="ref")
    elif mutation == "negative":
        container, key, _, _ = data.draw(st.sampled_from(refs), label="slot")
        container[key] = data.draw(st.integers(-5, -1), label="ref")
    elif mutation == "bool":
        container, key, _, _ = data.draw(st.sampled_from(refs), label="slot")
        container[key] = data.draw(st.booleans(), label="ref")
    elif mutation == "range":
        container, key, _, _ = data.draw(st.sampled_from(refs), label="slot")
        container[key] = data.draw(st.integers(len(nodes), len(nodes) + 5), label="ref")
    elif mutation == "kind":
        wrong = [
            (slot, index)
            for slot in refs
            for index in range(min(slot[3], len(nodes)))
            if _KIND[nodes[index][0]] != slot[2]
        ]
        (container, key, _, _), index = data.draw(st.sampled_from(wrong), label="slot")
        container[key] = index
    elif mutation == "name":
        names = [slot for slot in slots if slot[2] == "name"]
        container, key, _, _ = data.draw(st.sampled_from(names), label="slot")
        container[key] = data.draw(_NOT_STRINGS, label="value")
    elif mutation == "constant":
        constants = [node for node in nodes if node[0] == "c"]
        if not constants:
            nodes.append(["c", None])
        else:
            data.draw(st.sampled_from(constants), label="node")[1] = data.draw(
                _NOT_SCALARS, label="value"
            )
    elif mutation == "verdict":
        record = data.draw(st.sampled_from(document["verdicts"]), label="verdict")
        not_bool = st.one_of(st.none(), st.integers(0, 1), st.text(max_size=2))
        record[2] = data.draw(not_bool, label="value")
    elif mutation == "missing":
        del document[data.draw(st.sampled_from(sorted(document)), label="key")]
    elif mutation == "extra":
        unknown = st.text(max_size=4).filter(lambda key: key not in document)
        document[data.draw(unknown, label="key")] = 0
    else:
        key = data.draw(
            st.sampled_from(["nodes", "constraints", "caches", "restrictions", "verdicts"]),
            label="section",
        )
        not_list = st.one_of(st.none(), st.integers(), st.text(max_size=3))
        document[key] = data.draw(not_list, label="value")
    return document


def test_the_unmutated_document_merges(warm):
    assert warm.service.merge_sync([copy.deepcopy(warm.document)]) == (1, 0)


@FUZZ
@given(data=st.data())
def test_mutated_documents_are_counted_rejections(warm, data):
    document = _mutate(data, copy.deepcopy(warm.document))
    with pytest.raises(CodecError):
        decode_session(document)
    before = warm.service.stats().sync_rejected
    assert warm.service.merge_sync([document]) == (0, 1)
    assert warm.service.stats().sync_rejected == before + 1
    assert _serve_one(warm.service, warm.workload).ok


def test_deep_paths_are_rejected():
    nodes = [["v", "x"]] + [["a", index, "A"] for index in range(MAX_PATH_DEPTH + 1)]
    document = {
        "label": "x", "constraints_digest": "x", "nodes": nodes,
        "constraints": [], "caches": [], "restrictions": [], "verdicts": [],
    }
    with pytest.raises(CodecError):
        decode_session(document)
    document["nodes"] = nodes[:MAX_PATH_DEPTH]
    assert decode_session(document).constraints == ()


# ---------------------------------------------------------------------- #
# fuzzing decode_request; a bad line never costs the next one
# ---------------------------------------------------------------------- #
_SMALL = st.integers(-2, 6)
_JUNK = st.one_of(
    st.none(), st.booleans(), _SMALL, st.floats(-2, 6), st.text(max_size=4),
    st.lists(_SMALL, max_size=2), st.dictionaries(st.text(max_size=3), _SMALL, max_size=2),
)


def _records(workload):
    """Records for ``workload`` whose params mostly name its own builder's
    arguments, so most records reach the builder."""
    accepted = WORKLOAD_BUILDERS.get(workload, (None, ("relations",)))[1]
    params = st.one_of(
        st.fixed_dictionaries({}, optional={name: st.one_of(_SMALL, _JUNK) for name in accepted}),
        _JUNK,
    )
    return st.fixed_dictionaries(
        {"workload": st.just(workload)},
        optional={"params": params, "timeout": _JUNK, "strategy": _JUNK, "id": _JUNK},
    )


_RECORDS = st.sampled_from(sorted(WORKLOAD_BUILDERS) + ["nope"]).flatmap(_records)


@FUZZ
@given(record=_RECORDS, as_text=st.booleans())
def test_decode_request_raises_only_value_or_type_errors(record, as_text):
    try:
        decode_request(json.dumps(record) if as_text else record, 1)
    except (ValueError, TypeError):
        pass


_BAD = {"id": "bad", "workload": "ec1", "params": {"relations": -1}}
_GOOD = {"id": "good", "workload": "ec1", "params": {"relations": 2}}


def test_bad_line_then_good_line_on_one_socket():
    with OptimizerServer(shards=1, workers=1) as server:
        with socket.create_connection(("127.0.0.1", server.port), timeout=JOIN_TIMEOUT) as sock:
            sock.sendall(b"".join(json.dumps(r).encode("utf-8") + b"\n" for r in (_BAD, _GOOD)))
            sock.shutdown(socket.SHUT_WR)
            with sock.makefile("r", encoding="utf-8") as reader:
                records = [json.loads(line) for line in reader]
    assert [(r["id"], r["status"]) for r in records] == [("bad", "error"), ("good", "ok")]
    assert records[0]["error_type"] == "ValueError"


def test_batch_answers_a_bad_line_and_serves_the_rest(tmp_path):
    requests = tmp_path / "requests.jsonl"
    requests.write_text(
        "\n".join(json.dumps(r) for r in (_BAD, _GOOD, dict(_GOOD, id="good2"))) + "\n",
        encoding="utf-8",
    )
    results = tmp_path / "results.jsonl"
    code = main(["batch", "--input", str(requests), "--output", str(results)])
    records = [json.loads(line) for line in results.read_text().splitlines() if line.strip()]
    assert code == 1
    assert [r["status"] for r in records] == ["error", "ok", "ok"]
    assert records[0]["id"] == 1  # the bad line's number
    assert [r["id"] for r in records[1:]] == ["good", "good2"]


# ---------------------------------------------------------------------- #
# fuzzing the parser: malformed or over-deep text raises only ParseError
# ---------------------------------------------------------------------- #
def _parser_inputs():
    inputs = []
    for workload in (build_ec1(2, 1), build_ec2(1, 3, 1), build_ec3(3, 1)):
        inputs.append((parse_query, str(workload.query)))
        inputs += [(parse_dependency, format_dependency(dep)) for dep in workload.catalog.constraints()]
    paths = ["M1[k1].N", "dom M", "(r).A", "M[k[j]].A.B", "'s\\'q'", "4.5", "true"]
    return inputs + [(parse_path, path) for path in paths]


_PARSER_INPUTS = _parser_inputs()
_PIECES = st.sampled_from(
    ["(", ")", "[", "]", ".", ",", "=", ":", "'", '"', "\\", "@", "1", "2.5", "x", "M",
     " dom ", " and ", " in ", " where ", " from ", " select ", " struct(", " forall ",
     " exists ", " implies ", " distinct "]
)


@settings(FUZZ, max_examples=600)
@given(data=st.data())
def test_mutated_parser_inputs_raise_only_parse_errors(data):
    parse, text = data.draw(st.sampled_from(_PARSER_INPUTS), label="input")
    for _ in range(data.draw(st.integers(1, 4), label="mutations")):
        start = data.draw(st.integers(0, len(text)), label="start")
        end = data.draw(st.integers(start, min(len(text), start + 12)), label="end")
        mutation = data.draw(st.sampled_from(["delete", "insert", "duplicate", "text"]), label="mutation")
        if mutation == "delete":
            text = text[:start] + text[end:]
        elif mutation == "insert":
            text = text[:start] + data.draw(_PIECES, label="piece") * data.draw(
                st.integers(1, 80), label="times"
            ) + text[start:]
        elif mutation == "duplicate":
            text = text[:end] + text[start:end] * data.draw(st.integers(1, 40), label="times") + text[end:]
        else:
            text = text[:start] + data.draw(st.text(max_size=6), label="text") + text[end:]
    try:
        parse(text)
    except ParseError:
        pass


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_path, "M" + "[M" * 2000 + "[k" + "]" * 2001),
        (parse_path, "dom " * 5000 + "M"),
        (parse_path, "(" * 5000 + "x" + ")" * 5000),
        (parse_query, "select struct(A: r" + ".a" * 5000 + ") from R r"),
        (parse_query, "select struct(A: r.a) from R r where r.a = " + "(" * 5000 + "1" + ")" * 5000),
        (parse_dependency, "forall r in R where r.A = r" + ".b" * MAX_PATH_DEPTH + " implies r = r"),
        (parse_query, "select struct(A: " + "1" * 5000 + ") from R r"),
    ],
    ids=["lookups", "doms", "parentheses", "attributes", "condition", "dependency", "integer"],
)
def test_over_deep_or_oversized_paths_raise_parse_errors(parse, text):
    with pytest.raises(ParseError):
        parse(text)


def test_the_deepest_accepted_path_prints_and_hashes():
    path = parse_path("x" + ".a" * (MAX_PATH_DEPTH - 1))
    query = parse_query("select struct(A: r" + ".a" * (MAX_PATH_DEPTH - 1) + ") from R r")
    assert str(path).count(".a") == MAX_PATH_DEPTH - 1
    assert hash(query) == hash(parse_query(str(query)))
