"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.io import load_json, save_json
from repro.markov import identity_matrix, two_state_matrix


@pytest.fixture
def matrix_file(tmp_path):
    path = tmp_path / "matrix.json"
    save_json(two_state_matrix(0.8, 0.1), path)
    return str(path)


@pytest.fixture
def identity_file(tmp_path):
    path = tmp_path / "identity.json"
    save_json(identity_matrix(2), path)
    return str(path)


class TestQuantify:
    def test_prints_profile(self, matrix_file, capsys):
        code = main(
            ["quantify", "-m", matrix_file, "--epsilon", "0.1", "--horizon", "5"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "worst-case TPL" in out
        assert out.count("\n") >= 6  # header + 5 rows + summary

    def test_writes_profile_json(self, matrix_file, tmp_path, capsys):
        out_file = tmp_path / "profile.json"
        code = main(
            [
                "quantify", "-m", matrix_file,
                "--epsilon", "0.1", "--horizon", "3",
                "-o", str(out_file),
            ]
        )
        assert code == 0
        profile = load_json(out_file)
        assert profile.horizon == 3

    def test_two_matrices(self, matrix_file, identity_file, capsys):
        code = main(
            [
                "quantify",
                "-m", matrix_file, "-m", identity_file,
                "--epsilon", "0.1", "--horizon", "3",
            ]
        )
        assert code == 0

    def test_rejects_non_matrix_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"format": 1, "kind": "leakage_profile",
                                   "epsilons": [0.1], "bpl": [0.1],
                                   "fpl": [0.1], "tpl": [0.1]}))
        with pytest.raises(SystemExit):
            main(["quantify", "-m", str(bad), "--epsilon", "0.1"])


class TestSupremum:
    def test_finite_case(self, matrix_file, capsys):
        code = main(["supremum", "-m", matrix_file, "--epsilon", "0.23"])
        out = capsys.readouterr().out
        assert code == 0
        assert "supremum" in out
        assert "0.792" in out

    def test_unbounded_case(self, identity_file, capsys):
        code = main(["supremum", "-m", identity_file, "--epsilon", "0.1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "UNBOUNDED" in out


class TestAllocate:
    def test_quantified(self, matrix_file, capsys):
        code = main(
            ["allocate", "-m", matrix_file, "--alpha", "1.0", "--horizon", "6"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "verified worst-case TPL" in out

    def test_writes_allocation(self, matrix_file, tmp_path, capsys):
        out_file = tmp_path / "allocation.json"
        code = main(
            [
                "allocate", "-m", matrix_file,
                "--alpha", "1.0", "-o", str(out_file),
            ]
        )
        assert code == 0
        allocation = load_json(out_file)
        assert allocation.alpha == pytest.approx(1.0)

    def test_unbounded_correlation_reports_error(self, identity_file, capsys):
        code = main(["allocate", "-m", identity_file, "--alpha", "1.0"])
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err

    def test_nan_alpha_fails_before_printing(self, matrix_file, capsys):
        code = main(["allocate", "-m", matrix_file, "--alpha", "nan"])
        captured = capsys.readouterr()
        assert code == 1
        assert "finite and > 0" in captured.err
        assert captured.out == ""


class TestExperiments:
    def test_runs_named_experiment(self, capsys):
        code = main(["experiments", "fig3", "--quick"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Figure 3" in out


class TestRelease:
    def test_session_run_reports_events_and_summary(self, matrix_file, capsys):
        code = main(
            [
                "release", "-m", matrix_file,
                "--users", "20", "--steps", "5", "--epsilon", "0.2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("status=released") == 5
        assert "backend: scalar" in out
        assert "worst-case TPL" in out

    def test_fleet_backend_and_alpha_clamp(self, matrix_file, capsys):
        code = main(
            [
                "release", "-m", matrix_file,
                "--users", "10", "--steps", "8", "--epsilon", "0.3",
                "--alpha", "0.9", "--alpha-mode", "clamp",
                "--backend", "fleet",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "backend: fleet" in out
        assert "status=clamped" in out
        assert "remaining alpha headroom" in out

    def test_checkpoint_and_event_log(self, matrix_file, tmp_path, capsys):
        ckpt = tmp_path / "session-ckpt"
        log = tmp_path / "events.jsonl"
        code = main(
            [
                "release", "-m", matrix_file,
                "--users", "5", "--steps", "3",
                "--checkpoint", str(ckpt), "-o", str(log),
            ]
        )
        assert code == 0
        assert (ckpt / "scalar_manifest.json").exists()
        lines = log.read_text().strip().splitlines()
        assert len(lines) == 3
        assert json.loads(lines[0])["status"] == "released"

    def test_rejects_bad_sizes(self, matrix_file):
        with pytest.raises(SystemExit):
            main(["release", "-m", matrix_file, "--users", "0"])

    def test_sharded_session(self, matrix_file, capsys):
        code = main(
            [
                "release", "-m", matrix_file,
                "--users", "12", "--steps", "4", "--epsilon", "0.2",
                "--backend", "fleet", "--shards", "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "backend: sharded" in out
        assert out.count("status=released") == 4


class TestServe:
    def _serve(self, matrix_file, monkeypatch, lines, extra=()):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
        return main(
            ["serve", "-m", matrix_file, "--users", "4", "--epsilon", "0.1"]
            + list(extra)
        )

    def test_streams_events_for_json_lines(self, matrix_file, monkeypatch, capsys):
        code = self._serve(
            matrix_file,
            monkeypatch,
            [
                "[0, 1, 0, 1]",
                '{"snapshot": [1, 1, 1, 0], "epsilon": 0.05,'
                ' "overrides": {"2": 0.01}}',
            ],
        )
        captured = capsys.readouterr()
        assert code == 0
        events = [json.loads(line) for line in captured.out.strip().splitlines()]
        assert [e["t"] for e in events] == [1, 2]
        assert events[1]["epsilon"] == 0.05
        assert events[1]["overrides"] == {"2": 0.01}
        assert "served 2 events" in captured.err

    def test_bad_lines_reported_not_fatal(self, matrix_file, monkeypatch, capsys):
        code = self._serve(
            matrix_file,
            monkeypatch,
            ["not json", '{"snapshot": [0, 0, 0, 0], "epsilon": -2}', "[0, 1, 0, 1]"],
        )
        captured = capsys.readouterr()
        assert code == 0
        lines = [json.loads(line) for line in captured.out.strip().splitlines()]
        assert "error" in lines[0]
        assert "error" in lines[1]
        assert lines[2]["status"] == "released"

    def test_max_steps_limits_the_stream(self, matrix_file, monkeypatch, capsys):
        code = self._serve(
            matrix_file,
            monkeypatch,
            ["[0, 0, 0, 0]"] * 5,
            extra=["--max-steps", "2"],
        )
        captured = capsys.readouterr()
        assert code == 0
        assert len(captured.out.strip().splitlines()) == 2

    def test_windowed_wire_line_batches_the_accounting(
        self, matrix_file, monkeypatch, capsys
    ):
        """A {"window": [...]} line is ingested as one accounting window
        (one event per step), mixing bare snapshots and object steps."""
        code = self._serve(
            matrix_file,
            monkeypatch,
            [
                "[0, 1, 0, 1]",
                '{"window": [[1, 1, 0, 0],'
                ' {"snapshot": [0, 0, 1, 1], "epsilon": 0.05,'
                ' "overrides": {"2": 0.01}},'
                ' [1, 0, 1, 0]]}',
            ],
        )
        captured = capsys.readouterr()
        assert code == 0
        events = [json.loads(line) for line in captured.out.strip().splitlines()]
        assert [e["t"] for e in events] == [1, 2, 3, 4]
        assert events[2]["epsilon"] == 0.05
        assert events[2]["overrides"] == {"2": 0.01}
        assert all(e["status"] == "released" for e in events)
        assert "served 4 events" in captured.err

    def test_windowed_wire_line_rejects_bad_windows(
        self, matrix_file, monkeypatch, capsys
    ):
        code = self._serve(
            matrix_file,
            monkeypatch,
            ['{"window": []}', '{"window": 3}', "[0, 1, 0, 1]"],
        )
        captured = capsys.readouterr()
        assert code == 0
        lines = [json.loads(line) for line in captured.out.strip().splitlines()]
        assert "ValueError" in lines[0]["error"]
        assert "ValueError" in lines[1]["error"]
        assert lines[2]["status"] == "released"

    def test_max_steps_truncates_a_windowed_line(
        self, matrix_file, monkeypatch, capsys
    ):
        code = self._serve(
            matrix_file,
            monkeypatch,
            ['{"window": [[0, 0, 0, 0], [0, 1, 0, 1], [1, 1, 1, 1]]}'],
            extra=["--max-steps", "2"],
        )
        captured = capsys.readouterr()
        assert code == 0
        assert len(captured.out.strip().splitlines()) == 2

    def test_malformed_overrides_value_is_not_fatal(
        self, matrix_file, monkeypatch, capsys
    ):
        """A client sending overrides as an array (or any non-object)
        must get an error line, not kill the serve loop."""
        code = self._serve(
            matrix_file,
            monkeypatch,
            [
                '{"snapshot": [0, 0, 0, 0], "overrides": [1, 2]}',
                '{"window": [{"snapshot": [0, 0, 1, 1], "overrides": "x"}]}',
                "[0, 1, 0, 1]",
            ],
        )
        captured = capsys.readouterr()
        assert code == 0
        lines = [json.loads(line) for line in captured.out.strip().splitlines()]
        assert "ValueError" in lines[0]["error"]
        assert "ValueError" in lines[1]["error"]
        assert lines[2]["status"] == "released"

    def test_error_payloads_name_the_exception_class(
        self, matrix_file, monkeypatch, capsys
    ):
        """Regression: a KeyError used to serialise as its bare key
        ({"error": "'5'"}), indistinguishable from data."""
        code = self._serve(
            matrix_file,
            monkeypatch,
            [
                '{"snapshot": [0, 0, 0, 0], "overrides": {"99": 0.05}}',
                '{"snapshot": [0, 0, 0, 0], "epsilon": -2}',
            ],
        )
        captured = capsys.readouterr()
        assert code == 0
        lines = [json.loads(line) for line in captured.out.strip().splitlines()]
        assert lines[0]["error"].startswith("KeyError:")
        assert "99" in lines[0]["error"]
        assert lines[1]["error"].startswith("InvalidPrivacyParameterError:")

    def test_serve_preserves_non_integer_user_ids(self, monkeypatch, capsys):
        """Regression: _serve_loop coerced override keys with int(user),
        crashing (or silently corrupting) sessions keyed by non-integer
        user ids.  Drive the loop directly with a string-keyed session."""
        import asyncio
        import io

        import numpy as np

        from repro.cli import _serve_loop
        from repro.data import HistogramQuery
        from repro.service import ReleaseSession, SessionConfig

        m = two_state_matrix(0.8, 0.1)
        session = ReleaseSession(
            SessionConfig(
                correlations={u: (m, m) for u in ("alice", "bob", "carol")},
                budgets=0.1,
                query=HistogramQuery(2),
                seed=0,
            )
        )
        stream = io.StringIO(
            '{"snapshot": [0, 1, 1], "overrides": {"alice": 0.02}}\n'
        )
        processed = asyncio.run(_serve_loop(session, stream))
        captured = capsys.readouterr()
        assert processed == 1
        event = json.loads(captured.out.strip())
        assert event["status"] == "released"
        assert event["overrides"] == {"alice": 0.02}
        # The override really reached user "alice", type intact.
        assert np.array_equal(
            session.backend.user_epsilons("alice"), np.array([0.02])
        )
        assert np.array_equal(
            session.backend.user_epsilons("bob"), np.array([0.1])
        )

    def test_sharded_serve(self, matrix_file, monkeypatch, capsys):
        code = self._serve(
            matrix_file,
            monkeypatch,
            ["[0, 1, 0, 1]", '{"window": [[1, 0, 0, 1], [0, 0, 1, 1]]}'],
            extra=["--backend", "fleet", "--shards", "2"],
        )
        captured = capsys.readouterr()
        assert code == 0
        events = [json.loads(line) for line in captured.out.strip().splitlines()]
        assert [e["t"] for e in events] == [1, 2, 3]
        assert all(e["backend"] == "sharded" for e in events)
        assert "served 3 events" in captured.err

    def test_serve_lines_carry_seq_and_elapsed_ms(
        self, matrix_file, monkeypatch, capsys
    ):
        """Every emitted line -- result, error, windowed step -- carries a
        stable per-request ``seq`` (input order) and a monotonic-clock
        ``elapsed_ms``, so clients can correlate replies over the pipe
        without trusting arrival order."""
        code = self._serve(
            matrix_file,
            monkeypatch,
            [
                "[0, 1, 0, 1]",
                "not json",
                '{"window": [[1, 1, 0, 0], [1, 0, 1, 0]]}',
                '{"snapshot": [0, 0, 0, 0], "epsilon": -2}',
            ],
        )
        captured = capsys.readouterr()
        assert code == 0
        lines = [json.loads(line) for line in captured.out.strip().splitlines()]
        # 1 event + 1 bad-JSON error + 2 windowed events + 1 bad-epsilon
        # error, seq assigned per submitted step in input order.
        assert [line["seq"] for line in lines] == [0, 1, 2, 3, 4]
        assert "error" in lines[1]
        assert "error" in lines[4]
        assert [line.get("t") for line in lines] == [1, None, 2, 3, None]
        for line in lines:
            assert line["elapsed_ms"] >= 0.0

    def test_serve_stats_interval_emits_stats_lines_on_stderr(
        self, matrix_file, monkeypatch, capsys
    ):
        code = self._serve(
            matrix_file,
            monkeypatch,
            ["[0, 1, 0, 1]"] * 5,
            extra=["--stats-interval", "2"],
        )
        captured = capsys.readouterr()
        assert code == 0
        # stdout stays a pure event protocol.
        events = [json.loads(line) for line in captured.out.strip().splitlines()]
        assert [e["t"] for e in events] == [1, 2, 3, 4, 5]
        stats = [
            json.loads(line)["stats"]
            for line in captured.err.strip().splitlines()
            if line.startswith('{"stats"')
        ]
        assert [s["emitted"] for s in stats] == [2, 4]
        for s in stats:
            assert s["horizon"] == s["emitted"]
            # aingest drains through the windowed batch path.
            assert "session.window.seconds" in s["metrics"]
            # Ring-buffer readings are pruned from the wire format.
            assert "recent" not in s["metrics"]["queue.depth"]

    def test_serve_rejects_bad_stats_interval(self, matrix_file, monkeypatch):
        with pytest.raises(SystemExit):
            self._serve(
                matrix_file, monkeypatch, ["[0, 0, 0, 0]"],
                extra=["--stats-interval", "0"],
            )


class TestLoadgen:
    def test_smoke_preset_emits_report_and_json(self, tmp_path, capsys):
        out = tmp_path / "BENCH_serve.json"
        code = main(["loadgen", "--smoke", "-o", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert "latency" in captured.out
        assert "p999" in captured.out
        report = json.loads(out.read_text())
        assert report["completed"] == report["count"] == 200
        assert report["errors"] == 0
        assert report["latency_ms"]["p50"] is not None
        assert report["queue"]["high_watermark"] >= 1
        assert report["environment"]["python"]

    def test_empty_output_skips_json(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(
            [
                "loadgen", "--users", "3", "--rate", "5000", "--count", "20",
                "--window", "4", "--queue-size", "8", "-o", "",
            ]
        )
        assert code == 0
        assert not (tmp_path / "BENCH_serve.json").exists()

    def test_rejects_bad_rate(self):
        with pytest.raises(SystemExit):
            main(["loadgen", "--rate", "0"])


class TestFleet:
    def test_simulation_reports_tpl_and_throughput(self, capsys):
        code = main(
            ["fleet", "--users", "500", "--cohorts", "4", "--steps", "10"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "worst-case TPL" in out
        assert "user-steps/s" in out
        assert "solution cache" in out

    def test_alpha_bound_reported(self, capsys):
        code = main(
            [
                "fleet", "--users", "50", "--steps", "5",
                "--epsilon", "0.01", "--alpha", "10.0",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "remaining alpha headroom" in out

    def test_alpha_violation_is_an_error(self, capsys):
        code = main(
            [
                "fleet", "--users", "50", "--steps", "50",
                "--epsilon", "1.0", "--alpha", "0.5",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "release rejected" in captured.err

    def test_checkpoint_written(self, tmp_path, capsys):
        ckpt = tmp_path / "fleet-ckpt"
        code = main(
            [
                "fleet", "--users", "100", "--steps", "5",
                "--checkpoint", str(ckpt),
            ]
        )
        assert code == 0
        assert (ckpt / "manifest.json").exists()
        assert (ckpt / "arrays.npz").exists()
        from repro.fleet import load_checkpoint

        restored = load_checkpoint(ckpt)
        assert restored.horizon == 5
        assert restored.n_users == 100

    def test_rejects_bad_sizes(self, capsys):
        with pytest.raises(SystemExit):
            main(["fleet", "--users", "2", "--cohorts", "5", "--steps", "1"])


class TestLoadgenAdversarial:
    def test_adversarial_schedule_reports_stalls(self, capsys):
        code = main(
            [
                "loadgen", "--users", "5", "--rate", "5000",
                "--count", "80", "--window", "4", "--queue-size", "8",
                "--schedule", "adversarial", "-o", "",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "adversarial schedule" in out
        assert "backpressure stalls" in out

    def test_adversarial_without_stalls_is_an_error(self, capsys):
        # A backlog far below the queue bound never overruns it: the
        # schedule is adversarial in name only and the gate rejects it.
        code = main(
            [
                "loadgen", "--users", "5", "--rate", "5000",
                "--count", "40", "--window", "4", "--queue-size", "64",
                "--schedule", "adversarial", "--backlog", "4", "-o", "",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "no backpressure stalls" in captured.err


class TestWalCli:
    def release_args(self, matrix_file, wal_dir, steps=8, extra=()):
        return [
            "release", "-m", matrix_file, "--users", "20",
            "--steps", str(steps), "--epsilon", "0.1",
            "--backend", "fleet", "--wal-dir", str(wal_dir), *extra,
        ]

    def session_args(self, matrix_file):
        return [
            "-m", matrix_file, "--users", "20", "--epsilon", "0.1",
            "--backend", "fleet",
        ]

    def test_release_writes_wal_and_inspect_reads_it(
        self, matrix_file, tmp_path, capsys
    ):
        wal_dir = tmp_path / "wal"
        assert main(self.release_args(matrix_file, wal_dir)) == 0
        capsys.readouterr()
        assert main(["wal", "inspect", str(wal_dir)]) == 0
        out = capsys.readouterr().out
        assert "8 intact record(s)" in out
        assert main(["wal", "inspect", str(wal_dir), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["tail_records"] == 8
        assert summary["torn"] is False

    def test_release_recovers_from_existing_wal(
        self, matrix_file, tmp_path, capsys
    ):
        wal_dir = tmp_path / "wal"
        assert main(self.release_args(matrix_file, wal_dir, steps=5)) == 0
        capsys.readouterr()
        assert main(self.release_args(matrix_file, wal_dir, steps=3)) == 0
        captured = capsys.readouterr()
        assert "recovered 5 accounted releases" in captured.err
        main(["wal", "inspect", str(wal_dir), "--json"])
        summary = json.loads(capsys.readouterr().out)
        assert summary["total_records"] == 8

    def test_wal_recover_writes_checkpoint(
        self, matrix_file, tmp_path, capsys
    ):
        wal_dir = tmp_path / "wal"
        ckpt = tmp_path / "ckpt"
        main(self.release_args(matrix_file, wal_dir))
        capsys.readouterr()
        code = main(
            [
                "wal", "recover", str(wal_dir),
                *self.session_args(matrix_file),
                "--checkpoint", str(ckpt),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "checkpoint written" in out
        from repro.fleet import load_checkpoint

        assert load_checkpoint(ckpt).horizon == 8

    def test_wal_compact_folds_the_tail(self, matrix_file, tmp_path, capsys):
        wal_dir = tmp_path / "wal"
        main(self.release_args(matrix_file, wal_dir))
        capsys.readouterr()
        code = main(
            ["wal", "compact", str(wal_dir), *self.session_args(matrix_file)]
        )
        assert code == 0
        assert "log folded into snapshot" in capsys.readouterr().out
        main(["wal", "inspect", str(wal_dir), "--json"])
        summary = json.loads(capsys.readouterr().out)
        assert summary["tail_records"] == 0
        assert summary["base_records"] == 8
        assert summary["snapshot_horizon"] == 8

    def test_wal_reshard_changes_worker_count(
        self, matrix_file, tmp_path, capsys
    ):
        wal_dir = tmp_path / "wal"
        main(self.release_args(matrix_file, wal_dir))
        capsys.readouterr()
        code = main(
            [
                "wal", "reshard", str(wal_dir),
                *self.session_args(matrix_file), "--shards", "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "resharded to 2 worker(s)" in out
        # The log was rewritten for the new layout: two partitions.
        main(["wal", "inspect", str(wal_dir), "--json"])
        summary = json.loads(capsys.readouterr().out)
        assert summary["partitions"] == 2

    def test_wal_reshard_rejects_single_shard(self, matrix_file, tmp_path):
        wal_dir = tmp_path / "wal"
        main(self.release_args(matrix_file, wal_dir))
        with pytest.raises(SystemExit, match="must be >= 2"):
            main(
                [
                    "wal", "reshard", str(wal_dir),
                    *self.session_args(matrix_file), "--shards", "1",
                ]
            )

    def test_wal_inspect_rejects_non_wal_directory(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["wal", "inspect", str(tmp_path)])
