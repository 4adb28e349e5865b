"""Tests for the command-line interface."""

import re

import numpy as np
import pytest

from repro.cli import main, parse_graph_spec
from repro.errors import ReproError
from repro.graph.generators import rmat
from repro.graph.io import save_csr_binary


class TestGraphSpec:
    def test_rmat_spec(self):
        g = parse_graph_spec("rmat:8")
        assert g.num_vertices == 256

    def test_rmat_spec_with_edge_factor(self):
        light = parse_graph_spec("rmat:8:4")
        heavy = parse_graph_spec("rmat:8:16")
        assert heavy.num_edges > light.num_edges

    def test_dataset_spec(self):
        g = parse_graph_spec("DB", scale_factor=64)
        assert g.num_vertices > 0

    def test_file_spec(self, tmp_path):
        g = rmat(7, 4, seed=1)
        path = tmp_path / "g.csrbin"
        save_csr_binary(g, path)
        loaded = parse_graph_spec(f"file:{path}")
        assert loaded == g

    def test_bad_specs(self):
        with pytest.raises(ReproError):
            parse_graph_spec("bogus")
        with pytest.raises(ReproError):
            parse_graph_spec("rmat:8:4:2")


class TestCommands:
    def test_run(self, capsys):
        rc = main(["run", "--graph", "rmat:9", "--sources", "2", "--trace"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "GTEPS" in out
        assert "scan_free" in out

    def test_run_forced_strategy(self, capsys):
        rc = main(
            ["run", "--graph", "rmat:9", "--sources", "2",
             "--force", "bottom_up", "--trace"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "bottom_up" in out
        assert "scan_free" not in out.replace("scan_free", "", 0) or True

    def test_run_unscaled_cache(self, capsys):
        rc = main(
            ["run", "--graph", "rmat:9", "--sources", "1", "--no-scaled-cache"]
        )
        assert rc == 0

    def test_datasets(self, capsys):
        rc = main(["datasets", "--scale-factor", "512"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "LiveJournal" in out and "Rmat25" in out

    def test_experiment(self, capsys):
        rc = main(["experiment", "fig7", "--scale", "fast"])
        assert rc == 0
        assert "Fig 7" in capsys.readouterr().out

    def test_generate_then_run(self, tmp_path, capsys):
        out_path = tmp_path / "g.csrbin"
        rc = main(["generate", "--graph", "rmat:8", "--out", str(out_path)])
        assert rc == 0
        assert out_path.exists()
        rc = main(["run", "--graph", f"file:{out_path}", "--sources", "1"])
        assert rc == 0

    def test_error_exit_code(self, capsys):
        rc = main(["run", "--graph", "nope"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestRunConcurrent:
    def test_sharing_factor_printed(self, capsys):
        rc = main(["run", "--graph", "rmat:9", "--sources", "8",
                   "--concurrent"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sharing factor:" in out
        assert "union edges:" in out and "solo edges:" in out
        assert "GTEPS" in out

    def test_concurrent_rejects_forced_strategy(self, capsys):
        rc = main(["run", "--graph", "rmat:9", "--sources", "2",
                   "--concurrent", "--force", "bottom_up"])
        assert rc == 2
        assert "--concurrent" in capsys.readouterr().err


class TestServe:
    @pytest.fixture()
    def trace_path(self, tmp_path):
        from repro.service import synthetic_trace, save_trace

        sizes = {"rmat:8": 256, "rmat:9": 512, "rmat:10": 1024}
        trace = synthetic_trace(
            list(sizes), sizes, num_queries=200, seed=11, burst=8
        )
        path = tmp_path / "trace.jsonl"
        save_trace(trace, path)
        return path

    def test_serve_replays_and_validates(self, trace_path, capsys):
        rc = main(["serve", "--trace", str(trace_path), "--validate"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "replayed 200 queries" in out
        assert "all levels match" in out
        # Same-graph bursts coalesce and repeat graphs hit the cache.
        sharing = float(re.search(r"sharing (\d+\.\d+)x", out).group(1))
        assert sharing > 1.0
        hit_rate = float(re.search(r"hit rate (\d+\.\d+)%", out).group(1))
        assert hit_rate > 0.0

    def test_serve_validates_across_mutations(self, tmp_path, capsys):
        """Pre-mutation answers must validate against the graph version
        they were served at, not the registry's mutated head."""
        path = tmp_path / "mut.jsonl"
        path.write_text(
            '{"t_ms": 0.0, "graph": "rmat:10", "source": 7}\n'
            '{"t_ms": 1.0, "graph": "rmat:10", "source": 21}\n'
            '{"t_ms": 30.0, "graph": "rmat:10", "op": "mutate",'
            ' "insert": [[3, 9], [100, 200]]}\n'
            '{"t_ms": 31.0, "graph": "rmat:10", "source": 7}\n'
            '{"t_ms": 32.0, "graph": "rmat:10", "source": 21}\n'
        )
        rc = main(["serve", "--trace", str(path), "--validate"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "validated 4 served queries" in out
        assert "repair=1" in out

    def test_serve_writes_summary(self, trace_path, tmp_path, capsys):
        out_path = tmp_path / "svc.json"
        rc = main(["serve", "--trace", str(trace_path), "--out",
                   str(out_path)])
        assert rc == 0
        from repro.metrics.results_io import load_results

        (summary,) = load_results(out_path)
        assert summary["queries_served"] == 200
        assert summary["mean_sharing_factor"] > 1.0
        assert summary["cache_hit_rate"] > 0.0

    def test_serve_bounded_queue_rejects(self, trace_path, capsys):
        rc = main(["serve", "--trace", str(trace_path),
                   "--queue-depth", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        rejected = int(re.search(r"queue_full=(\d+)", out).group(1))
        assert rejected > 0

    def test_serve_missing_trace_errors(self, tmp_path, capsys):
        rc = main(["serve", "--trace", str(tmp_path / "nope.jsonl")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestServeSynthetic:
    """``repro serve --graphs``: seeded synthetic open-loop load."""

    def test_graphs_replays_validates_and_writes_summary(self, tmp_path,
                                                         capsys):
        out_path = tmp_path / "svc.json"
        rc = main(["serve", "--graphs", "rmat:8,rmat:9",
                   "--queries", "40", "--burst", "8",
                   "--validate", "--out", str(out_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "synthetic open-loop load: 40 queries over 2 graphs" in out
        assert "p50" in out and "GTEPS" in out
        assert "validated 40 served queries" in out
        from repro.metrics.results_io import load_results

        (summary,) = load_results(out_path)
        assert summary["queries_served"] == 40

    def test_trace_and_graphs_together_is_usage_error(self, tmp_path,
                                                      capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--trace", str(tmp_path / "t.jsonl"),
                  "--graphs", "rmat:8"])
        assert exc.value.code == 2
        assert "not allowed with" in capsys.readouterr().err

    def test_one_query_source_is_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--validate"])
        assert exc.value.code == 2
        assert "--trace" in capsys.readouterr().err

    @pytest.mark.parametrize("retired", ["service-bench", "cluster-bench", "trace"])
    def test_retired_bench_commands_are_invalid_choices(self, retired,
                                                        capsys):
        with pytest.raises(SystemExit) as exc:
            main([retired])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestExplain:
    def test_explain_renders_a_served_querys_chain(self, tmp_path, capsys):
        audit = tmp_path / "a.jsonl"
        rc = main(["serve", "--graphs", "rmat:8,rmat:9", "--queries", "40",
                   "--burst", "8", "--audit-out", str(audit)])
        assert rc == 0
        assert f"audit records for 40 queries to {audit}" in (
            capsys.readouterr().out
        )
        rc = main(["explain", "3", "--audit", str(audit)])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("query 3 ")
        stages = [line.split("]")[0].strip(" [") for line in lines[1:]]
        assert stages[0] == "admission"
        assert "routing" in stages
        assert stages[-1] == "outcome"
        assert " served (" in lines[-1]


class TestTop:
    def test_json_snapshot_matches_the_table(self, tmp_path, capsys):
        import json

        snap = tmp_path / "snap.json"
        rc = main(["top", "--replicas", "3", "--json", str(snap)])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        header = next(i for i, line in enumerate(lines)
                      if line.startswith("replica "))
        served_col = lines[header].split().index("served")
        table = {}
        for line in lines[header + 2:]:
            fields = line.split()
            if not fields or not fields[0].isdigit():
                break
            table[int(fields[0])] = int(fields[served_col])
        rows = json.loads(snap.read_text())["replicas"]
        assert [row["replica"] for row in rows] == [0, 1, 2]
        assert {row["replica"]: row["served"] for row in rows} == table
        assert sum(row["served"] for row in rows) == sum(table.values()) > 0


class TestProfileCsv:
    def test_profile_csv_written(self, tmp_path, capsys):
        out = tmp_path / "counters.csv"
        rc = main(
            ["run", "--graph", "rmat:9", "--sources", "1",
             "--profile-csv", str(out)]
        )
        assert rc == 0
        text = out.read_text()
        assert text.startswith("name,")
        assert "init_status" in text


class TestTraceOut:
    """``repro run --trace-out`` exports the run's dual-clock timeline:
    Chrome ``trace_event`` JSON, or the raw span/event log when the
    path ends in ``.jsonl`` (the rule ``repro serve --trace-out``
    follows too)."""

    @staticmethod
    def _run(path, concurrent, capsys):
        argv = ["run", "--graph", "rmat:9", "--sources", "2",
                "--trace-out", str(path)]
        rc = main(argv + (["--concurrent"] if concurrent else []))
        assert rc == 0
        out = capsys.readouterr().out
        assert f"wrote trace to {path} " in out
        assert _CORRELATION not in out
        # Solo runs are one trace per source; a batch is one trace.
        return 1 if concurrent else 2

    @pytest.mark.parametrize("concurrent", [False, True], ids=["solo", "concurrent"])
    def test_json_suffix_writes_chrome_trace(self, tmp_path, capsys, concurrent):
        import json

        path = tmp_path / "trace.json"
        runs = self._run(path, concurrent, capsys)
        events = json.loads(path.read_text())["traceEvents"]
        spans = [e["name"] for e in events if e["ph"] == "X"]
        assert spans.count("bfs.run") == runs
        assert "bfs.level" in spans

    @pytest.mark.parametrize("concurrent", [False, True], ids=["solo", "concurrent"])
    def test_jsonl_suffix_writes_span_log(self, tmp_path, capsys, concurrent):
        import json

        path = tmp_path / "trace.jsonl"
        runs = self._run(path, concurrent, capsys)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        runs_seen = [r for r in records if r["type"] == "span" and r["name"] == "bfs.run"]
        assert [r["trace_id"] for r in runs_seen] == [f"t{i + 1}" for i in range(runs)]
        assert any(r["name"] == "bfs.level" for r in records)


_CORRELATION = "per-level virtual/host correlation"


def _level_strategies(lines):
    """``[(level, strategy), ...]`` from the rows of a per-level table
    (the header line first), stopping at the first non-row line."""
    rows = []
    for line in lines[1:]:
        fields = line.split()
        if len(fields) < 2 or not fields[0].isdigit():
            break
        rows.append((int(fields[0]), fields[1]))
    return rows


class TestHostProfile:
    def test_run_host_profile_prints_attribution(self, capsys):
        rc = main(["run", "--graph", "rmat:9", "--sources", "2",
                   "--host-profile"])
        assert rc == 0
        out = capsys.readouterr().out
        assert _CORRELATION in out
        assert "virtual ms" in out and "host ms" in out

    def test_concurrent_host_profile(self, capsys):
        rc = main(["run", "--graph", "rmat:9", "--sources", "4",
                   "--concurrent", "--host-profile"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        at = next(i for i, line in enumerate(lines) if _CORRELATION in line)
        rows = _level_strategies(lines[at + 1:])
        assert rows and {strategy for _, strategy in rows} == {"concurrent"}

    def test_run_without_flag_prints_no_host_profile(self, capsys):
        rc = main(["run", "--graph", "rmat:9", "--sources", "1"])
        assert rc == 0
        assert _CORRELATION not in capsys.readouterr().out

    def test_correlation_shows_the_traced_run(self, capsys):
        """Both per-level tables describe the same run: the steady run
        the ``--trace`` table and the depth line report, not the last
        source's."""
        rc = main(["run", "--graph", "rmat:12", "--sources", "4",
                   "--trace", "--host-profile"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        traced = _level_strategies(lines[1:])
        at = next(i for i, line in enumerate(lines) if _CORRELATION in line)
        correlated = _level_strategies(lines[at + 1:])
        assert traced and traced == correlated
