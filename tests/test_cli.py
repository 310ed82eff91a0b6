"""Command-line behavior: exit codes, artifacts, stage composition."""

import json
import os
import subprocess
import sys

import pytest

import textwifi_slam
from textwifi_slam.cli import main

ARTIFACTS = [
    "config.json",
    "floorplan.json",
    "match_report.json",
    "merged_map.json",
    "metrics.json",
    "recording_a0.jsonl",
    "recording_a1.jsonl",
    "recording_a2.jsonl",
    "trajectories.json",
]


def test_importing_the_cli_leaves_scipy_spatial_unloaded():
    """Only registration builds KD-trees, so only it pays for scipy.spatial."""
    src = os.path.dirname(os.path.dirname(textwifi_slam.__file__))
    code = "import sys, textwifi_slam.cli; print('scipy.spatial' in sys.modules)"
    run = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
        check=True,
    )
    assert run.stdout.strip() == "False"


class TestExitCodes:
    def test_no_command_is_a_usage_error(self, capsys):
        assert main([]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_flag_is_a_usage_error(self, capsys):
        assert main(["generate", "--frobnicate"]) == 1

    def test_unknown_scenario_is_a_usage_error(self, capsys):
        assert main(["generate", "--scenario", "scene99"]) == 1

    def test_invalid_threshold_is_a_configuration_error(self, tmp_path, capsys):
        code = main(["generate", "--alpha", "1.5", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "configuration error" in capsys.readouterr().err

    def test_unknown_scenario_in_config_file_is_a_configuration_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"scenario": "bench"}))
        out = tmp_path / "o"
        code = main(["generate", "--config", str(cfg), "--out", str(out)])
        assert code == 1
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "values", [{"zero_noise": "false"}, {"alpha": "0.8"}, {"seed": 1.5}]
    )
    def test_config_value_of_the_wrong_type_is_a_configuration_error(
        self, tmp_path, capsys, values
    ):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(values))
        out = tmp_path / "o"
        code = main(["generate", "--config", str(cfg), "--out", str(out)])
        assert code == 1
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_config_file_is_a_configuration_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"alhpa": 0.9}))
        code = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "alhpa" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"alpha": 0.9, ', "Expecting property name"),
            ('{"alpha": NaN}', "NaN is not valid JSON"),
        ],
        ids=["truncated", "nan"],
    )
    @pytest.mark.parametrize("source", ["--config", "directory"])
    def test_a_config_file_that_is_not_json_is_named(
        self, tmp_path, capsys, text, message, source
    ):
        out = tmp_path / "o"
        out.mkdir()
        if source == "--config":
            cfg = tmp_path / "run.json"
            argv = ["generate", "--config", str(cfg), "--out", str(out)]
        else:
            cfg = out / "config.json"
            argv = ["match", "--out", str(out)]
        cfg.write_text(text)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"configuration error: {cfg}: {message}" in err

    def test_directory_with_removed_settings_is_a_configuration_error(self, tmp_path, capsys):
        # A config.json written while these values were still run settings;
        # they are module constants now.
        removed = {
            "min_loop_separation_s": 30.0,
            "sigma_scale_db": 32.0,
            "fingerprint_window_s": 3.0,
            "icp_max_iterations": 50,
            "icp_correspondence_radius_m": 2.0,
            "icp_tolerance": 1e-05,
            "optimizer_max_iterations": 50,
            "robust_kernel_scale": 1.0,
            "voxel_size_m": 0.0,
        }
        out = tmp_path / "o"
        assert main(["simulate", "--out", str(out), "--seed", "1"]) == 0
        settings = json.loads((out / "config.json").read_text())
        (out / "config.json").write_text(json.dumps({**settings, **removed}))
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()

        assert main(["match", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert f"unknown config keys: {', '.join(sorted(removed))}" in err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_match_without_recordings_is_a_pipeline_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        out.mkdir()
        assert main(["match", "--out", str(out)]) == 2
        assert "pipeline error" in capsys.readouterr().err

    def test_align_without_match_report_is_a_pipeline_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["simulate", "--out", str(out), "--seed", "1"]) == 0
        assert main(["align", "--out", str(out)]) == 2


def test_generate_writes_world_and_settings(tmp_path, capsys):
    out = tmp_path / "world"
    assert main(["generate", "--out", str(out), "--seed", "2"]) == 0
    assert "floorplan.json" in capsys.readouterr().out

    cfg = json.loads((out / "config.json").read_text())
    assert cfg["seed"] == 2
    assert cfg["scenario"] == "scene01"
    assert "out_dir" not in cfg  # artifacts must not remember where they lived

    plan = json.loads((out / "floorplan.json").read_text())
    assert plan["walls_m"]
    assert len(plan["access_points"]) == 10

    # Both scenes run at the same operating point, the RunConfig defaults.
    for scenario in ("scene01", "scene02"):
        scene_out = tmp_path / scenario
        assert main(["generate", "--out", str(scene_out), "--scenario", scenario]) == 0
        cfg = json.loads((scene_out / "config.json").read_text())
        assert cfg["scenario"] == scenario
        # Every run setting; fixed values are module constants.
        assert sorted(cfg) == [
            "alpha", "beta", "duplicate_text_count", "gamma", "scenario", "seed", "sweep",
            "zero_noise",
        ]


def test_staged_run_matches_run_all_byte_for_byte(tmp_path):
    staged = tmp_path / "staged"
    oneshot = tmp_path / "oneshot"
    flags = ["--seed", "1"]

    for stage in ("generate", "simulate", "match", "align", "evaluate"):
        # Later stages take every setting from the config.json that the
        # generate stage dropped into the directory; only --out is repeated.
        args = [stage, "--out", str(staged)] + (flags if stage == "generate" else [])
        assert main(args) == 0, stage
    assert main(["run-all", "--out", str(oneshot)] + flags) == 0

    assert sorted(p.name for p in staged.iterdir()) == ARTIFACTS
    assert sorted(p.name for p in oneshot.iterdir()) == ARTIFACTS
    for name in ARTIFACTS:
        assert (staged / name).read_bytes() == (oneshot / name).read_bytes(), name


def test_each_stage_adds_exactly_its_own_files(tmp_path):
    out = tmp_path / "o"
    promised = {
        "generate": ["config.json", "floorplan.json"],
        "simulate": ["recording_a0.jsonl", "recording_a1.jsonl", "recording_a2.jsonl"],
        "match": ["match_report.json"],
        "align": ["merged_map.json", "trajectories.json"],
        "evaluate": ["metrics.json"],
    }
    expected: list[str] = []
    for stage, files in promised.items():
        args = [stage, "--out", str(out)] + (["--seed", "1"] if stage == "generate" else [])
        assert main(args) == 0, stage
        expected = sorted(expected + files)
        assert sorted(p.name for p in out.iterdir()) == expected, stage
    assert expected == ARTIFACTS


@pytest.mark.parametrize("stage", ["generate", "simulate"])
def test_rewriting_the_world_removes_a_previous_runs_artifacts(tmp_path, capsys, stage):
    """Recordings and results of an earlier run must not outlive a new world:
    evaluate would score them and label them with the new settings."""
    out = tmp_path / "o"
    assert main(["generate", "--out", str(out)]) == 0
    for name in ARTIFACTS[2:] + ["recording_gone.jsonl", "notes.txt"]:
        (out / name).write_text("from an earlier run\n")
    assert main([stage, "--out", str(out), "--scenario", "scene02", "--seed", "3"]) == 0
    kept = ["config.json", "floorplan.json", "notes.txt"]
    if stage == "simulate":
        kept += ["recording_a0.jsonl", "recording_a1.jsonl", "recording_a2.jsonl"]
    assert sorted(p.name for p in out.iterdir()) == sorted(kept)
    assert (out / "notes.txt").read_text() == "from an earlier run\n"
    assert main(["evaluate", "--out", str(out)]) == 2
    assert "pipeline error" in capsys.readouterr().err


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    """An artifact directory after generate --seed 1 and simulate."""
    out = tmp_path_factory.mktemp("simulated") / "o"
    assert main(["generate", "--out", str(out), "--seed", "1"]) == 0
    assert main(["simulate", "--out", str(out)]) == 0
    return out


class TestReadersRunWithTheRecordedSettings:
    """match, align and evaluate take their settings from config.json alone."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["match", "--alpha", "0.5"],
            ["match", "--config", "f.json"],
            ["align", "--seed", "2"],
            ["evaluate", "--seed", "5"],
            ["evaluate", "--scenario", "scene02"],
        ],
    )
    def test_a_settings_flag_is_a_usage_error(self, simulated, tmp_path, capsys, argv):
        config = tmp_path / "f.json"
        config.write_text(json.dumps({"alpha": 0.5}))
        argv = [str(config) if arg == "f.json" else arg for arg in argv]
        before = {p.name: p.read_bytes() for p in simulated.iterdir()}
        assert main(argv + ["--out", str(simulated)]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in simulated.iterdir()} == before

    def test_evaluate_adds_a_sweep_and_keeps_the_seed(self, simulated, capsys):
        out = str(simulated)
        assert main(["match", "--out", out]) == 0
        assert main(["align", "--out", out]) == 0

        capsys.readouterr()
        assert main(["evaluate", "--out", out, "--sweep"]) == 0
        metrics = json.loads((simulated / "metrics.json").read_text())
        assert (metrics["seed"], len(metrics["sweep"])) == (1, 9)
        # The summary line reports the map's accuracy as run-all's does.
        trajectory = metrics["trajectory"]
        assert capsys.readouterr().out.endswith(
            f"; absolute trajectory error {trajectory['ate_optimized_m']:.3f} m"
            f"; end-point error {trajectory['epe_optimized_m']:.3f} m\n"
        )

        assert main(["evaluate", "--out", out]) == 0
        metrics = json.loads((simulated / "metrics.json").read_text())
        assert metrics["seed"] == 1
        assert "sweep" not in metrics


def test_run_all_reports_the_headline_numbers(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["run-all", "--out", str(out), "--seed", "1", "--sweep"]) == 0
    printed = capsys.readouterr().out
    assert "fused precision" in printed
    assert "end-point error" in printed

    report = json.loads((out / "match_report.json").read_text())
    assert report["settings"] == {
        "alpha": 0.8,
        "beta": 0.8,
        "gamma": 0.8,
        "min_loop_separation_s": 30.0,
        "sigma_scale_db": 32.0,
    }

    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["seed"] == 1
    assert len(metrics["sweep"]) == 9
    trajectory = metrics["trajectory"]
    assert trajectory["loop_edge_count"] > 0
    # Loop closures make the map far more accurate than dead reckoning.
    assert trajectory["ate_optimized_m"] < 0.5 * trajectory["ate_initial_m"]
    assert "absolute trajectory error" in printed

    # The registration work, summed over the align stage's workers.
    accepted = sum(1 for c in report["candidates"] if c["verdict"] == "accepted")
    work = trajectory["registration"]
    assert sorted(work) == [
        "icp_calls",
        "icp_capped",
        "icp_iterations",
        "sweep_starts",
        "sweeps",
        "warm_fallbacks",
        "warm_starts",
    ]
    assert 0 < work["warm_fallbacks"] < work["warm_starts"] < accepted
    assert 0 < work["icp_capped"] < work["icp_calls"]
    # One call per pair, one more per fallback, one per heading a sweep ran:
    # a sweep runs one to four, stopping at the first solid fit.
    assert work["icp_calls"] == accepted + work["warm_fallbacks"] + work["sweep_starts"]
    assert work["sweeps"] <= work["sweep_starts"] <= 4 * work["sweeps"]
    assert work["icp_iterations"] >= work["icp_calls"]
