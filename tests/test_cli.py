"""Tests for the command-line experiment runner."""

import io
import json

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_every_experiment_has_a_subcommand(self):
        parser = build_parser()
        for name in EXPERIMENTS:
            args = parser.parse_args([name])
            assert args.command == name

    def test_optimize_arguments(self):
        args = build_parser().parse_args(
            ["optimize", "ec2", "--stars", "2", "--corners", "3", "--views", "1", "--strategy", "oqf"]
        )
        assert args.workload == "ec2"
        assert args.strategy == "oqf"
        assert (args.stars, args.corners, args.views) == (2, 3, 1)

    @pytest.mark.parametrize("flag", ["--workers", "--executor"])
    def test_optimize_has_no_parallel_knobs(self, flag):
        """``optimize`` runs inline and takes no parallelism knobs."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["optimize", "ec1", flag, "2"])
        assert exit_info.value.code == 2

    def test_missing_command_is_an_error(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_route_arguments(self):
        args = build_parser().parse_args(
            ["route", "--backend", "127.0.0.1:7411", "--backend", ":7412", "--port", "0"]
        )
        assert args.command == "route"
        assert args.backend == ["127.0.0.1:7411", ":7412"]
        assert args.ring_replicas == 64  # the ring default rides the parser

    def test_route_has_no_sync_interval(self):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(
                ["route", "--backend", "127.0.0.1:7411", "--sync-interval", "5"]
            )
        assert exit_info.value.code == 2

    def test_route_requires_a_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["route", "--port", "0"])

    def test_serve_accepts_a_snapshot_store(self):
        args = build_parser().parse_args(["serve", "--snapshot-store", "fleet-store"])
        assert args.snapshot_store == "fleet-store"
        assert build_parser().parse_args(["batch"]).snapshot_store is None


class TestMain:
    def test_list_command(self):
        out = io.StringIO()
        assert main(["list"], out=out) == 0
        listed = out.getvalue().split()
        assert "fig9" in listed and "plans-table" in listed

    def test_optimize_ec1(self):
        out = io.StringIO()
        assert main(["optimize", "ec1", "--relations", "2"], out=out) == 0
        text = out.getvalue()
        assert "4 plans" in text
        assert "PI1" in text

    def test_optimize_ec3_with_strategy(self):
        out = io.StringIO()
        assert main(["optimize", "ec3", "--classes", "3", "--strategy", "ocs"], out=out) == 0
        assert "4 plans" in out.getvalue()

    def test_fig5_ec3_small(self):
        out = io.StringIO()
        # The driver accepts no CLI-tunable knobs, so this runs its default
        # (small) parameterisation; just check a table is printed.
        assert main(["fig5-ec3"], out=out) == 0
        assert "time to chase" in out.getvalue()

    def test_fig9_with_small_size(self):
        out = io.StringIO()
        assert (
            main(
                ["fig9", "--stars", "2", "--corners", "2", "--views", "1", "--size", "200"],
                out=out,
            )
            == 0
        )
        assert "plans for EC2" in out.getvalue()


class TestServiceCommands:
    """The JSONL serving commands (`batch` / `serve`)."""

    REQUESTS = [
        {"id": "a", "workload": "ec1", "params": {"relations": 2}, "strategy": "fb"},
        {"id": "b", "workload": "ec2", "params": {"stars": 1, "corners": 3, "views": 1}},
        {"id": "a2", "workload": "ec1", "params": {"relations": 2}, "strategy": "fb"},
    ]

    def _write_requests(self, tmp_path, requests=None):
        path = tmp_path / "requests.jsonl"
        lines = [json.dumps(record) for record in (requests or self.REQUESTS)]
        path.write_text("# comment line\n" + "\n".join(lines) + "\n", encoding="utf-8")
        return path

    def _read_results(self, path):
        return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]

    def test_batch_roundtrip_preserves_input_order(self, tmp_path):
        requests = self._write_requests(tmp_path)
        results = tmp_path / "results.jsonl"
        code = main(
            [
                "batch",
                "--input", str(requests),
                "--output", str(results),
                "--shards", "2",
                # one request at a time per shard, so the repeat of "a" runs
                # against a fully warm cache and the assertion is exact
                "--max-inflight", "1",
            ],
        )
        assert code == 0
        records = self._read_results(results)
        assert [record["id"] for record in records] == ["a", "b", "a2"]
        assert all(record["status"] == "ok" for record in records)
        # identical requests produce identical plan digests, warm or cold
        assert records[0]["plan_digests"] == records[2]["plan_digests"]
        assert records[2]["cache_misses"] == 0

    def test_batch_check_asserts_single_shot_equivalence(self, tmp_path):
        requests = self._write_requests(tmp_path)
        results = tmp_path / "results.jsonl"
        code = main(
            ["batch", "--input", str(requests), "--output", str(results), "--check", "--stats"],
        )
        assert code == 0
        records = self._read_results(results)
        assert all(record.get("matches_single_shot") for record in records[:-1])
        assert records[-1]["stats"]["requests"] == 3

    def test_batch_reports_bad_requests_and_exits_nonzero(self, tmp_path):
        requests = self._write_requests(
            tmp_path,
            [
                {"id": "good", "workload": "ec1", "params": {"relations": 2}},
                {"id": "bad", "workload": "nope"},
            ],
        )
        results = tmp_path / "results.jsonl"
        code = main(["batch", "--input", str(requests), "--output", str(results)])
        assert code == 1
        records = self._read_results(results)
        statuses = {record["id"]: record["status"] for record in records}
        assert statuses["good"] == "ok"
        assert [record for record in records if record["status"] == "error"]

    def test_serve_streams_results(self, tmp_path):
        requests = self._write_requests(tmp_path)
        results = tmp_path / "results.jsonl"
        code = main(["serve", "--input", str(requests), "--output", str(results)])
        assert code == 0
        records = self._read_results(results)
        # streaming emits in completion order; all three must arrive
        assert {record["id"] for record in records} == {"a", "b", "a2"}
        assert all(record["status"] == "ok" for record in records)
