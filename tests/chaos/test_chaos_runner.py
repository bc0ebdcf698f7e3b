"""End-to-end chaos runs: seeded schedules against the real cluster stack."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.chaos import ChaosRunner, Schedule, run_seed, shrink_schedule

SEEDS_FILE = Path(__file__).parent / "regression_seeds.txt"


def load_regression_seeds():
    cases = []
    for line in SEEDS_FILE.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            seed, steps, nodes = (int(part) for part in line.split())
            cases.append((seed, steps, nodes))
    return cases


class TestSchedule:
    def test_generation_is_pure(self):
        assert Schedule.generate(5, 80, 3) == Schedule.generate(5, 80, 3)
        assert Schedule.generate(5, 80, 3) != Schedule.generate(6, 80, 3)

    def test_json_roundtrip_preserves_digest(self):
        schedule = Schedule.generate(11, 120, 3)
        again = Schedule.from_json(schedule.to_json())
        assert again == schedule
        assert again.digest() == schedule.digest()

    def test_unknown_version_rejected(self):
        blob = json.loads(Schedule.generate(1, 10, 1).to_json())
        blob["version"] = 999
        with pytest.raises(ValueError, match="version"):
            Schedule.from_json(json.dumps(blob))

    def test_crashes_are_paired_with_restarts(self):
        schedule = Schedule.generate(3, 120, 3)
        kinds = [event.kind for event in schedule.events]
        assert kinds.count("crash") == kinds.count("restart")

    def test_shrink_converges_to_minimal_event_set(self):
        schedule = Schedule.generate(5, 120, 3)

        def failing(candidate):
            kinds = {event.kind for event in candidate.events}
            return "crash" in kinds and "reset" in kinds

        assert failing(schedule)
        minimal = shrink_schedule(schedule, failing)
        assert failing(minimal)
        assert len(minimal.events) == 2

    def test_shrink_respects_test_budget(self):
        schedule = Schedule.generate(5, 120, 3)
        calls = []

        def failing(candidate):
            calls.append(1)
            return True  # everything "fails": worst case for ddmin

        shrink_schedule(schedule, failing, max_tests=5)
        assert len(calls) <= 5


class TestRunner:
    def test_seed_grid_no_acked_loss_no_divergence(self):
        for seed in (1, 4):
            report = run_seed(seed, steps=50, nodes=3, shrink=False)
            assert report["ok"], report["violations"]
            assert report["counters"].get("acked", 0) > 0

    def test_report_is_bit_reproducible(self):
        first = run_seed(21, steps=50, nodes=3, shrink=False)
        second = run_seed(21, steps=50, nodes=3, shrink=False)
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_single_node_cluster_works(self):
        report = run_seed(2, steps=40, nodes=1, shrink=False)
        assert report["ok"], report["violations"]

    def test_runner_accepts_explicit_schedule(self):
        schedule = Schedule.generate(9, 40, 3)
        report = ChaosRunner(schedule).run()
        assert report["schedule_digest"] == schedule.digest()
        assert report["ok"], report["violations"]


class TestRegressionSeeds:
    """Replay every promoted seed; see regression_seeds.txt for history."""

    @pytest.mark.parametrize(
        "seed,steps,nodes",
        load_regression_seeds(),
        ids=lambda value: str(value),
    )
    def test_regression_seed_passes(self, seed, steps, nodes):
        report = run_seed(seed, steps=steps, nodes=nodes, shrink=False)
        assert report["ok"], (seed, report["violations"])


class TestCli:
    def test_chaos_run_single_seed(self, capsys):
        from repro.cli import main

        rc = main(["chaos", "run", "--seed", "1", "--steps", "40"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "seed 1: ok" in out

    def test_chaos_run_json_report(self, capsys):
        from repro.cli import main

        rc = main(["chaos", "run", "--seed", "1", "--steps", "40", "--json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["seed"] == 1

    def test_json_sweeps_print_identical_stdout(self, capsys):
        from repro.cli import main

        argv = ["chaos", "run", "--sweep", "3", "--steps", "20", "--json"]
        runs = []
        for _ in range(2):
            assert main(argv) == 0
            runs.append(capsys.readouterr())
        assert runs[0].out == runs[1].out
        assert len(runs[0].out.splitlines()) == 3
        # The timing line differs run to run, so it goes to stderr.
        assert "sweep: 3/3 seeds ok" in runs[0].err
        assert "sweep:" not in runs[0].out

    def test_failing_seed_writes_minimal_schedule_artifact(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.chaos.runner as runner_mod
        from repro.cli import main

        schedule = Schedule.generate(1, 10, 2)

        def fake_run_seed(seed, *, steps, nodes, shrink):
            return {
                "seed": seed,
                "ok": False,
                "violations": ["injected failure"],
                "events": len(schedule.events),
                "final_seq": 0,
                "schedule_digest": schedule.digest(),
                "minimal_schedule": schedule.to_json(),
            }

        monkeypatch.setattr(runner_mod, "run_seed", fake_run_seed)
        rc = main(
            [
                "chaos", "run", "--seed", "1",
                "--artifacts-dir", str(tmp_path),
            ]
        )
        assert rc == 1
        artifact = tmp_path / "chaos-minimal-1.json"
        assert Schedule.from_json(artifact.read_text()) == schedule
        assert "FAIL" in capsys.readouterr().out
