"""CLI front ends of the sweep runtime: ``sweep`` and cached ``run all``."""

import json

import pytest

from repro.cli import main


def run_sweep(tmp_path, *extra, jobs="1", json_name="out.json"):
    json_out = tmp_path / json_name
    code = main(
        [
            "sweep",
            "--solver", "sne-lp3",
            "--solver", "theorem6",
            "--model", "tree-chords",
            "--n", "8",
            "--count", "2",
            "--seed", "0",
            "--jobs", jobs,
            "--cache-dir", str(tmp_path / "cache"),
            "--json-out", str(json_out),
            "--quiet",
            *extra,
        ]
    )
    return code, json_out.read_bytes()


class TestSweepCommand:
    def test_cold_warm_and_parallel_byte_identical(self, tmp_path, capsys):
        code1, cold = run_sweep(tmp_path, json_name="cold.json")
        assert code1 == 0
        assert "4 ok" in capsys.readouterr().out
        code2, warm = run_sweep(tmp_path, json_name="warm.json")
        assert code2 == 0
        assert "(4 cached)" in capsys.readouterr().out
        code3, parallel = run_sweep(
            tmp_path, "--no-cache", jobs="3", json_name="par.json"
        )
        assert code3 == 0
        assert cold == warm == parallel
        payload = json.loads(cold)
        assert payload["kind"] == "sweep-result"
        assert [j["status"] for j in payload["jobs"]] == ["ok"] * 4
        assert all("wall_clock_seconds" not in j["report"] for j in payload["jobs"])

    def test_json_out_carries_solver_profiles(self, tmp_path, capsys):
        """Schema 3: LP-backed solvers surface their work counters per job."""
        json_out = tmp_path / "prof.json"
        code = main(
            [
                "sweep",
                "--solver", "sne-cutting-plane",
                "--solver", "theorem6",
                "--model", "tree-chords",
                "--n", "8",
                "--count", "1",
                "--seed", "0",
                "--no-cache",
                "--json-out", str(json_out),
                "--quiet",
            ]
        )
        assert code == 0
        capsys.readouterr()
        payload = json.loads(json_out.read_bytes())
        assert payload["schema"] == 3
        by_solver = {j["solver"]: j for j in payload["jobs"]}
        profile = by_solver["sne-cutting-plane"]["profile"]
        assert set(profile) == {
            "dijkstra_calls",
            "players_batched",
            "cut_rounds",
            "warm_start_hits",
        }
        assert profile["cut_rounds"] >= 1
        # lifted out of (not duplicated into) the embedded report copy
        assert "profile" not in by_solver["sne-cutting-plane"]["report"]["metadata"]
        # solvers without counters record an explicit null
        assert by_solver["theorem6"]["profile"] is None

    def test_spec_file(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps({"solvers": ["theorem6"], "sizes": [8], "count": 1, "seed": 1})
        )
        code = main(
            ["sweep", "--spec", str(spec), "--no-cache", "--quiet"]
        )
        assert code == 0
        assert "1 job" in capsys.readouterr().out

    def test_solverless_spec_file_plus_solver_flag(self, tmp_path, capsys):
        # a grid-only spec shared across solver runs is a valid combination
        spec = tmp_path / "grid.json"
        spec.write_text(json.dumps({"sizes": [8], "count": 1, "seed": 1}))
        code = main(
            ["sweep", "--spec", str(spec), "--solver", "theorem6",
             "--no-cache", "--quiet"]
        )
        assert code == 0
        assert "1 job" in capsys.readouterr().out

    def test_instances_file(self, tmp_path, capsys):
        inst = tmp_path / "instances.json"
        assert main(
            ["gen", "--n", "8", "--count", "2", "--seed", "3", "--out", str(inst)]
        ) == 0
        capsys.readouterr()
        code = main(
            [
                "sweep", "--instances", str(inst), "--solver", "theorem6",
                "--no-cache", "--quiet",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "inst0 x theorem6" in out and "inst1 x theorem6" in out

    def test_solver_required_without_spec(self, capsys):
        assert main(["sweep", "--quiet"]) == 2
        assert "sweep needs --solver" in capsys.readouterr().err

    def test_unknown_solver_clean_error(self, capsys):
        assert main(["sweep", "--solver", "nope", "--quiet"]) == 2
        assert "unknown solver" in capsys.readouterr().err

    def test_bad_param_syntax(self, capsys):
        assert main(
            ["sweep", "--solver", "theorem6", "--param", "density", "--quiet"]
        ) == 2
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_unknown_option_fails_before_any_job(self, tmp_path, capsys):
        cache_dir = tmp_path / "c"
        code = main(
            [
                "sweep", "--solver", "sne-poly", "--n", "8",
                "--opt", "fast=false", "--cache-dir", str(cache_dir),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "does not take option(s) 'fast'" in err
        assert "[1/1]" not in err  # no job reached an outcome
        assert not any(p.is_file() for p in cache_dir.rglob("*"))

    def test_progress_on_stderr(self, tmp_path, capsys):
        code = main(
            [
                "sweep", "--solver", "theorem6", "--n", "8",
                "--cache-dir", str(tmp_path / "c"),
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "[1/1]" in err and "theorem6" in err


class TestRunAllCacheReporting:
    @pytest.fixture()
    def skip_flags(self):
        # keep only the fastest experiments so the test stays quick
        keep = {"E5", "E10"}
        from repro.experiments import EXPERIMENTS

        flags = []
        for key in EXPERIMENTS:
            if key not in keep:
                flags += ["--skip", key]
        return flags

    def test_summary_counts_hits_and_skips(self, tmp_path, capsys, skip_flags):
        n_skipped = len(skip_flags) // 2
        args = ["run", "all", "--cache-dir", str(tmp_path / "cache"), *skip_flags]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "skipped" in cold
        assert f"(0 cache hits, {n_skipped} skipped)" in cold
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert f"(2 cache hits, {n_skipped} skipped)" in warm
        assert "E5   cached" in warm

    def test_json_summary_statuses(self, tmp_path, capsys, skip_flags):
        json_out = tmp_path / "summary.json"
        args = [
            "run", "all", "--cache-dir", str(tmp_path / "cache"),
            "--json-out", str(json_out), *skip_flags,
        ]
        assert main(args) == 0
        assert main(args) == 0
        capsys.readouterr()
        payload = json.loads(json_out.read_text())
        assert payload["passed"] == 2
        assert payload["failed"] == 0
        assert payload["skipped"] == len(skip_flags) // 2
        assert payload["cache_hits"] == 2
        statuses = {e["id"]: e["status"] for e in payload["experiments"]}
        assert statuses["E5"] == "cached"
        assert statuses["E1"] == "skipped"
        # skipped experiments are not failures and keep exit code 0
        assert all(e["error"] is None for e in payload["experiments"])
