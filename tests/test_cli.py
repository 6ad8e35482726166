"""Tests for the command-line interface and machine-spec parsing."""

import json

import pytest

from repro.cli import build_parser, main
from repro.errors import ReproError
from repro.machine.spec import parse_machine_spec


class TestParseMachineSpec:
    """The canonical parser (repro.machine.spec) the CLI/registry share."""

    def test_simple_spec(self):
        machine = parse_machine_spec("2x32")
        assert machine.num_clusters == 2
        assert machine.total_registers == 32

    def test_unified_spec(self):
        machine = parse_machine_spec("1x64")
        assert not machine.is_clustered

    def test_full_spec(self):
        machine = parse_machine_spec("4x64x2x2")
        assert machine.num_clusters == 4
        assert machine.num_buses == 2
        assert machine.bus_latency == 2

    def test_dsp_preset(self):
        machine = parse_machine_spec("c6x")
        assert machine.num_clusters == 2
        assert machine.issue_width == 8

    def test_bad_spec(self):
        with pytest.raises(ReproError):
            parse_machine_spec("banana")
        with pytest.raises(ReproError):
            parse_machine_spec("2")
        with pytest.raises(ReproError):
            parse_machine_spec("2x32x1x1x9")


class TestCommands:
    def test_schedule_kernel(self, capsys):
        assert main(["schedule", "--kernel", "daxpy", "--machine", "2x32"]) == 0
        out = capsys.readouterr().out
        assert "II=" in out
        assert "kernel of 'daxpy'" in out

    def test_schedule_unknown_kernel(self, capsys):
        assert main(["schedule", "--kernel", "nope"]) == 2
        captured = capsys.readouterr()
        assert "unknown kernel 'nope'" in captured.err
        assert captured.out == ""

    def test_schedule_from_json_file(self, tmp_path, capsys):
        from repro.ir.serialize import save
        from repro.workloads.kernels import dot_product

        path = tmp_path / "dot.json"
        save(dot_product(), str(path))
        assert main(["schedule", "--loop-file", str(path)]) == 0
        assert "dot" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "content",
        [None, "{not json", '{"name": "x", "dependences": []}'],
        ids=["missing", "invalid-json", "no-operations"],
    )
    def test_schedule_bad_loop_file_is_a_clean_cli_error(
        self, tmp_path, capsys, content
    ):
        path = tmp_path / "loop.json"
        if content is not None:
            path.write_text(content)
        assert main(["schedule", "--loop-file", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_schedule_every_algorithm(self, capsys):
        for algorithm in ("uracam", "fixed-partition", "gp"):
            code = main(
                ["schedule", "--kernel", "cmul", "--algorithm", algorithm]
            )
            assert code == 0

    def test_evaluate_json_format(self, capsys):
        code = main(
            ["evaluate", "--clusters", "2", "--registers", "32",
             "--programs", "1", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "averages" in payload
        assert set(payload["series"]) == {
            "unified", "uracam", "fixed-partition", "gp"
        }

    def test_evaluate_csv_format(self, capsys):
        code = main(
            ["evaluate", "--programs", "1", "--format", "csv"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("benchmark,")
        assert lines[-1].startswith("AVERAGE,")

    def test_workloads_listing(self, capsys):
        assert main(["workloads", "--program", "swim"]) == 0
        out = capsys.readouterr().out
        assert "swim_loop0" in out

    def test_workloads_extended_tier(self, capsys):
        assert main(
            ["workloads", "--suite", "extended", "--program", "swim"]
        ) == 0
        out = capsys.readouterr().out
        assert "swim_ext0" in out
        assert "(22 loops)" in out

    def test_evaluate_verify_matches_default(self, capsys):
        # The paranoid mode cross-checks every commit and re-validates
        # every schedule from scratch; it must not change a single byte.
        argv = ["evaluate", "--programs", "1", "--format", "csv"]
        assert main(argv) == 0
        default = capsys.readouterr().out
        assert main(argv + ["--verify"]) == 0
        assert capsys.readouterr().out == default

    def test_evaluate_jobs_matches_sequential(self, capsys):
        argv = ["evaluate", "--programs", "1", "--format", "csv"]
        assert main(argv) == 0
        sequential = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        assert capsys.readouterr().out == sequential

    def test_evaluate_validate_each_matches_sequential(self, capsys):
        argv = ["evaluate", "--programs", "1", "--format", "csv"]
        assert main(argv) == 0
        sequential = capsys.readouterr().out
        assert main(argv + ["--validate-each"]) == 0
        assert capsys.readouterr().out == sequential
        assert main(argv + ["--validate-each", "--jobs", "2"]) == 0
        assert capsys.readouterr().out == sequential

    @pytest.mark.parametrize(
        "argv",
        [
            ["evaluate", "--programs", "-9"],
            ["evaluate", "--programs", "-10"],
        ],
        ids=["evaluate-9", "evaluate-10"],
    )
    def test_negative_programs_is_a_clean_cli_error(self, capsys, argv):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert f"programs must be >= 0, got {argv[-1]}" in captured.err
        assert captured.out == ""

    def test_machines_listing(self, capsys):
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        assert "unified-32r" in out and "c6x" in out

    def test_parser_help_builds(self):
        parser = build_parser()
        assert parser.prog == "repro"


class TestStoreAndCacheCommands:
    """``--store`` on evaluate and the ``repro cache`` subcommand."""

    def _store(self, tmp_path):
        return str(tmp_path / "store")

    @pytest.mark.parametrize(
        "cold_jobs, warm_jobs", [(1, 1), (2, 1), (1, 2)],
        ids=["seq-seq", "pool-seq", "seq-pool"],
    )
    def test_evaluate_store_replay_identical_output(
        self, tmp_path, capsys, cold_jobs, warm_jobs
    ):
        # Execution knobs never enter the fingerprint: a store filled by
        # a pooled run replays under a sequential one, and vice versa.
        args = [
            "evaluate", "--clusters", "2", "--registers", "32",
            "--programs", "1", "--store", self._store(tmp_path),
        ]
        assert main(args + ["--jobs", str(cold_jobs)]) == 0
        cold = capsys.readouterr()
        assert "misses=4" in cold.err
        assert main(args + ["--jobs", str(warm_jobs)]) == 0
        warm = capsys.readouterr()
        # Byte-identical stdout, 100% hits on the replay.
        assert warm.out == cold.out
        assert "cache: hits=4 misses=0" in warm.err

    def test_store_counters_stay_off_stdout(self, tmp_path, capsys):
        assert main([
            "evaluate", "--clusters", "2", "--registers", "32",
            "--programs", "1", "--store", self._store(tmp_path),
            "--format", "csv",
        ]) == 0
        captured = capsys.readouterr()
        assert "cache:" not in captured.out
        assert "cache:" in captured.err

    def test_cache_stats_and_verify_and_clear(self, tmp_path, capsys):
        store = self._store(tmp_path)
        assert main([
            "evaluate", "--clusters", "2", "--registers", "32",
            "--programs", "1", "--store", store,
        ]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "entries:   4" in out
        assert "backend:   disk" in out
        assert main(["cache", "verify", "--store", store]) == 0
        assert "verified 4 entries" in capsys.readouterr().out
        assert main(["cache", "clear", "--store", store]) == 0
        assert "removed 4" in capsys.readouterr().out
        assert main(["cache", "stats", "--store", store]) == 0
        assert "entries:   0" in capsys.readouterr().out

    def test_cache_verify_flags_and_purges_corruption(self, tmp_path, capsys):
        import os

        store = self._store(tmp_path)
        assert main([
            "evaluate", "--clusters", "2", "--registers", "32",
            "--programs", "1", "--store", store,
        ]) == 0
        capsys.readouterr()
        objects = os.path.join(store, "objects")
        victim = None
        for shard in os.listdir(objects):
            names = os.listdir(os.path.join(objects, shard))
            if names:
                victim = os.path.join(objects, shard, names[0])
                break
        with open(victim, "w") as handle:
            handle.write('{"schema": "repro-codec/3", "tru')
        assert main(["cache", "verify", "--store", store]) == 1
        captured = capsys.readouterr()
        assert "verified 3 entries" in captured.out
        assert "corrupt" in captured.err
        assert main(["cache", "verify", "--purge", "--store", store]) == 0
        capsys.readouterr()
        assert main(["cache", "verify", "--store", store]) == 0
        assert "verified 3 entries" in capsys.readouterr().out

    def test_cache_verify_flags_and_purges_non_utf8_entry(
        self, tmp_path, capsys
    ):
        import os

        store = self._store(tmp_path)
        assert main([
            "evaluate", "--clusters", "2", "--registers", "32",
            "--programs", "1", "--store", store,
        ]) == 0
        capsys.readouterr()
        objects = os.path.join(store, "objects")
        shard = sorted(os.listdir(objects))[0]
        victim = os.path.join(objects, shard, os.listdir(os.path.join(objects, shard))[0])
        with open(victim, "wb") as handle:
            handle.write(b"\xff\xfe not text")
        assert main(["cache", "verify", "--store", store]) == 1
        captured = capsys.readouterr()
        assert "verified 3 entries" in captured.out
        assert "corrupt:" in captured.err and "not UTF-8" in captured.err
        assert main(["cache", "verify", "--purge", "--store", store]) == 0
        assert "purged:" in capsys.readouterr().err
        assert not os.path.exists(victim)
        assert main(["cache", "verify", "--store", store]) == 0
        assert "verified 3 entries" in capsys.readouterr().out

    def test_evaluate_recomputes_over_non_utf8_entry(self, tmp_path, capsys):
        import os

        store = self._store(tmp_path)
        args = [
            "evaluate", "--clusters", "2", "--registers", "32",
            "--programs", "1", "--store", store, "--format", "csv",
        ]
        assert main(args) == 0
        cold = capsys.readouterr().out
        objects = os.path.join(store, "objects")
        for shard in os.listdir(objects):
            for name in os.listdir(os.path.join(objects, shard)):
                with open(os.path.join(objects, shard, name), "wb") as handle:
                    handle.write(b"\xff\xfe")
        assert main(args) == 0
        captured = capsys.readouterr()
        assert captured.out == cold
        assert "cache: hits=0 misses=4" in captured.err

    def test_cache_unknown_store_is_structured_error(self, capsys):
        assert main(["cache", "stats", "--store", "redis"]) == 1
        err = capsys.readouterr().err
        assert "unknown store 'redis'" in err
        assert "disk" in err
