"""CLI tests for the profile family, bronze --profile, and attribution."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.apps.bronze_standard import BronzeStandardApplication
from repro.experiments.__main__ import main
from repro.observability.profiling import Profile, parse_collapsed

RUN = ["--pairs", "2", "--config", "SP+DP", "--seed", "42"]
SRC = Path(__file__).resolve().parents[2] / "src"


def record_profile(tmp_path, name="profile.json", extra=()):
    path = tmp_path / name
    assert main(["profile", "record", *RUN, "--out", str(path), *extra]) == 0
    return path


class TestProfileRecord:
    def test_writes_a_loadable_profile(self, capsys, tmp_path):
        path = record_profile(tmp_path)
        out = capsys.readouterr().out
        assert str(path) in out
        profile = Profile.load(path)
        assert profile.clock == "deterministic"
        assert "sim" in profile.by_component()

    def test_same_seed_is_byte_identical(self, tmp_path):
        first = record_profile(tmp_path, "a.json")
        second = record_profile(tmp_path, "b.json")
        assert first.read_bytes() == second.read_bytes()

    def test_byte_identical_across_processes_and_hash_seeds(self, tmp_path):
        paths = []
        for hash_seed in ("0", "1"):
            path = tmp_path / f"hash{hash_seed}.json"
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
            subprocess.run(
                [sys.executable, "-m", "repro.experiments", "profile", "record",
                 *RUN, "--out", str(path)],
                check=True, env=env, capture_output=True,
            )
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_wall_clock_opt_in(self, tmp_path):
        path = record_profile(tmp_path, extra=("--clock", "wall"))
        assert Profile.load(path).clock == "wall"


class TestProfileReport:
    def test_renders_component_table(self, capsys, tmp_path):
        path = record_profile(tmp_path)
        capsys.readouterr()
        assert main(["profile", "report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "component" in out
        assert "sim" in out and "core" in out

    def test_missing_profile_exits_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read"):
            main(["profile", "report", str(tmp_path / "absent.json")])


class TestProfileFlame:
    def test_collapsed_output_parses_strictly(self, capsys, tmp_path):
        path = record_profile(tmp_path)
        capsys.readouterr()
        assert main(["profile", "flame", str(path)]) == 0
        weights = parse_collapsed(capsys.readouterr().out)
        assert ("sim", "repro.sim.engine:Engine.step") in weights


class TestProfileDiff:
    def test_names_the_regressed_component(self, capsys, tmp_path):
        base = record_profile(tmp_path, "base.json")
        slow = tmp_path / "slow.json"
        document = json.loads(base.read_text())
        # triple every core function's calls: the diff must name core
        for key in document["rows"]:
            if key.startswith("core;"):
                document["rows"][key] *= 3
        slow.write_text(json.dumps(document), encoding="utf-8")
        capsys.readouterr()
        assert main(["profile", "diff", str(base), str(slow)]) == 0
        out = capsys.readouterr().out
        assert "top regressed component: core" in out


class TestBronzeProfileFlag:
    def test_bronze_profile_writes_file(self, capsys, tmp_path):
        path = tmp_path / "bronze.json"
        assert main([
            "bronze", "--pairs", "2", "--config", "SP+DP",
            "--profile", str(path),
        ]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out  # standard report unchanged
        assert str(path) in out
        assert Profile.load(path).total > 0


class TestCompareRunsAttribution:
    def record_row(self, tmp_path, name):
        store = tmp_path / "store"
        out = tmp_path / name
        assert main([
            "record-run", *RUN, "--store", str(store), "--out", str(out),
        ]) == 0
        return out

    def test_rows_carry_profile_counters(self, capsys, tmp_path):
        row = self.record_row(tmp_path, "row.json")
        counters = json.loads(row.read_text())["counters"]
        for component in ("sim", "core", "grid", "observability"):
            assert counters[f"perf.profile.{component}"] > 0

    def test_identical_rows_pass_and_print_delta_table(self, capsys, tmp_path):
        row = self.record_row(tmp_path, "row.json")
        capsys.readouterr()
        assert main([
            "compare-runs", str(row), str(row), "--budget-throughput", "0.2",
        ]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "candidate" in out and "budget" in out
        assert "makespan" in out

    def test_tampered_candidate_is_attributed(self, capsys, tmp_path):
        # perf.events_per_sec is recorded by the long-running service,
        # not the one-shot CLI row: inject it on both sides, then halve
        # it and triple core's profile share on the candidate.
        row = self.record_row(tmp_path, "row.json")
        document = json.loads(row.read_text())
        base = tmp_path / "base.json"
        document["counters"]["perf.events_per_sec"] = 1000.0
        base.write_text(json.dumps(document), encoding="utf-8")
        slow = tmp_path / "slow.json"
        document["counters"]["perf.events_per_sec"] = 500.0
        document["counters"]["perf.profile.core"] *= 3
        slow.write_text(json.dumps(document), encoding="utf-8")
        capsys.readouterr()
        assert main([
            "compare-runs", str(base), str(slow), "--budget-throughput", "0.2",
        ]) == 1
        out = capsys.readouterr().out
        assert "top regressed components" in out
        assert "core" in out


def outcome(result):
    """What a run computed: makespan, invocations and an outputs digest."""
    if isinstance(result, Exception):
        # file names number from a process-global counter, which earlier
        # enactments in this process advanced
        return ("raised", re.sub(r"/\d{8}", "/N", str(result)))
    outputs = {
        sink: [str(value) for value in result.output_values(sink)]
        for sink in sorted(result.outputs)
    }
    digest = hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()
    return (result.makespan, result.invocation_count, digest)


class TestProfilingNeverChangesResults:
    """Profiled commands compute exactly what the unprofiled run does."""

    @pytest.fixture
    def enactments(self, monkeypatch):
        """Outcomes of every Bronze Standard enactment a command runs."""
        seen = []
        enact = BronzeStandardApplication.enact

        def spy(self, *args, **kwargs):
            try:
                result = enact(self, *args, **kwargs)
            except Exception as exc:
                seen.append(outcome(exc))
                raise
            seen.append(outcome(result))
            return result

        monkeypatch.setattr(BronzeStandardApplication, "enact", spy)
        return seen

    def run(self, enactments, argv):
        try:
            main(argv)
        except Exception:
            pass  # the failure itself is part of the recorded outcome
        assert len(enactments) == 1, enactments
        return enactments.pop()

    @pytest.mark.parametrize(
        "testbed, seed", [("egee", "42"), ("chaotic", "1"), ("chaotic", "42")]
    )
    def test_profile_record_and_record_run(self, enactments, tmp_path, testbed, seed):
        run = ["--pairs", "2", "--config", "SP+DP", "--seed", seed, "--testbed", testbed]
        plain = self.run(enactments, ["bronze", *run])
        profiled = self.run(
            enactments, ["profile", "record", *run, "--out", str(tmp_path / "p.json")]
        )
        recorded = self.run(
            enactments, ["record-run", *run, "--store", str(tmp_path / "store")]
        )
        assert profiled == plain
        assert recorded == plain

    @pytest.mark.parametrize("testbed", ["egee", "chaotic"])
    def test_bronze_profile(self, enactments, tmp_path, testbed):
        run = ["bronze", "--pairs", "3", "--seed", "42", "--testbed", testbed,
               "--best-effort"]
        plain = self.run(enactments, run)
        profiled = self.run(enactments, [*run, "--profile", str(tmp_path / "b.json")])
        assert profiled == plain
        assert plain[0] != "raised"
