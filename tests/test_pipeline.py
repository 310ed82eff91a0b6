"""Stage orchestration: where the cyclic garbage collector runs."""

import gc

import pytest

from textwifi_slam import io_formats, pipeline
from textwifi_slam.config import config_for_scenario


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
    spy(pipeline, "register_keyframe_pairs", result=[])
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
