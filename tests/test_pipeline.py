"""Stage orchestration: where the cyclic garbage collector runs, and what
evaluate scores from the plan's anchors."""

import gc
import json
import logging
import shutil

import pytest

from textwifi_slam import io_formats, pipeline
from textwifi_slam.config import config_for_scenario
from textwifi_slam.pose_graph import RegistrationWork
from textwifi_slam.simulate import Recording


@pytest.fixture()
def gc_restored():
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
def test_pausing_restores_the_collectors_previous_state(gc_restored, enabled):
    (gc.enable if enabled else gc.disable)()
    with pipeline._gc_paused():
        assert not gc.isenabled()
        with pipeline._gc_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled() == enabled

    with pytest.raises(RuntimeError, match="inside"):
        with pipeline._gc_paused():
            raise RuntimeError("inside")
    assert gc.isenabled() == enabled


def test_collector_is_paused_for_bulk_builds_and_running_for_align(
    gc_restored, monkeypatch, tmp_path
):
    """run_all with align's registrations stubbed out: the collector is off
    while simulate, match and the writers build, on while align forks."""
    gc.enable()
    seen: dict[str, set] = {}

    def spy(module, name, result=None):
        real = getattr(module, name)

        def record(*args, **kwargs):
            seen.setdefault(name, set()).add(gc.isenabled())
            return real(*args, **kwargs) if result is None else result

        monkeypatch.setattr(module, name, record)

    spy(pipeline, "simulate_recording")
    spy(pipeline, "match_all")
    spy(pipeline, "register_keyframe_pairs", result=([], RegistrationWork()))
    spy(pipeline, "optimize_pose_graph")
    spy(io_formats, "save_recording")
    spy(io_formats, "save_match_report")
    spy(io_formats, "save_trajectories")
    spy(io_formats, "load_recording")

    pipeline.run_all(config_for_scenario("scene01", seed=0), out_dir=tmp_path)
    pipeline.run_align(config_for_scenario("scene01", seed=0), tmp_path)

    assert seen == {
        "simulate_recording": {False},
        "match_all": {False},
        "register_keyframe_pairs": {True},
        "optimize_pose_graph": {True},
        "save_recording": {False},
        "save_match_report": {False},
        "save_trajectories": {False},
        "load_recording": {False},
    }
    assert gc.isenabled()


EPE_KEYS = (
    "anchor_start",
    "anchor_end",
    "separation_truth_m",
    "epe_baseline_m",
    "epe_optimized_m",
    "epe_reduction_fraction",
)


@pytest.fixture(scope="module")
def aligned_run(tmp_path_factory):
    """A scene01 seed-0 artifact directory after run-all: its config, path,
    metrics and floorplan anchor table."""
    out = tmp_path_factory.mktemp("aligned")
    cfg = config_for_scenario("scene01", seed=0)
    metrics = pipeline.run_all(cfg, out_dir=out).metrics
    anchors = json.loads((out / pipeline.FLOORPLAN_FILE).read_text())["anchors_m"]
    return cfg, out, metrics, anchors


def evaluate_with_anchors(aligned_run, tmp_path, anchors):
    """Run the evaluate command on a copy of the run whose floorplan.json
    holds the given anchor table."""
    cfg, out, _, _ = aligned_run
    copy = tmp_path / "o"
    shutil.copytree(out, copy)
    plan = json.loads((copy / pipeline.FLOORPLAN_FILE).read_text())
    plan["anchors_m"] = anchors
    (copy / pipeline.FLOORPLAN_FILE).write_text(json.dumps(plan))
    return pipeline.run_evaluate(cfg, copy).metrics


def test_evaluate_looks_up_each_agents_truth_once(aligned_run, tmp_path, monkeypatch):
    calls = []
    truths_at = Recording.truths_at

    def counted(self, timestamps):
        calls.append(self.agent_id)
        return truths_at(self, timestamps)

    monkeypatch.setattr(Recording, "truths_at", counted)
    _, _, full, anchors = aligned_run
    metrics = evaluate_with_anchors(aligned_run, tmp_path, anchors)
    assert metrics == full
    assert set(EPE_KEYS) < set(metrics["trajectory"])
    assert calls == ["a0", "a1", "a2"]


@pytest.mark.parametrize("labels", [[], ["a0/start"]], ids=["no-anchors", "start-only"])
def test_a_plan_without_both_anchors_scores_ate_alone_and_quietly(
    aligned_run, tmp_path, caplog, labels
):
    _, _, full, anchors = aligned_run
    with caplog.at_level(logging.WARNING):
        metrics = evaluate_with_anchors(
            aligned_run, tmp_path, {label: anchors[label] for label in labels}
        )
    assert caplog.records == []
    trajectory = {k: v for k, v in full["trajectory"].items() if k not in EPE_KEYS}
    assert metrics == {**full, "trajectory": trajectory}
    assert {"ate_initial_m", "ate_optimized_m"} <= set(trajectory)


def test_two_start_anchors_are_a_warning_not_a_score(aligned_run, tmp_path, caplog):
    anchors = aligned_run[3]
    with caplog.at_level(logging.WARNING):
        metrics = evaluate_with_anchors(
            aligned_run, tmp_path, {**anchors, "a1/start": anchors["a0/start"]}
        )
    [record] = caplog.records
    assert "end-point error unavailable" in record.getMessage()
    assert "'a0/start', 'a1/start'" in record.getMessage()
    assert not set(EPE_KEYS) & set(metrics["trajectory"])
    assert "ate_optimized_m" in metrics["trajectory"]
