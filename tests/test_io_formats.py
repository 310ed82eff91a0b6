"""Serialization: exact round trips, byte determinism, format validation."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from textwifi_slam.geometry import PointCloud2, Pose2
from textwifi_slam.io_formats import (
    candidate_from_dict,
    candidate_to_dict,
    load_floorplan,
    load_match_report,
    load_merged_map,
    load_recording,
    load_recordings,
    load_trajectories,
    recording_path,
    save_floorplan,
    save_match_report,
    save_merged_map,
    save_recording,
    save_recordings,
    save_trajectories,
)
from textwifi_slam.place_recognition import MatchCandidate, Verdict
from textwifi_slam.simulate import (
    SCAN_RAY_COUNT,
    AgentScript,
    OdometryStep,
    Recording,
    ScanEvent,
    TruthSample,
    simulate_recording,
)
from textwifi_slam.text_matching import TextObservation
from textwifi_slam.wifi import WifiMatchScore, WifiScan
from textwifi_slam.world import generate_floorplan


def scan_ranges(*returns: tuple[int, float]) -> np.ndarray:
    """Ranges with a return of the given length on each given beam, none elsewhere."""
    ranges = np.full(SCAN_RAY_COUNT, math.inf)
    for beam, r in returns:
        ranges[beam] = r
    return ranges


def sample_recording() -> Recording:
    return Recording(
        agent_id="a0",
        truth=[
            TruthSample(0.0, Pose2(1.5, 1.5, 0.0)),
            TruthSample(0.1, Pose2(1.6, 1.5, 0.01)),
        ],
        odometry=[OdometryStep(0.0, 0.1, 0.002, 0.01)],
        scans=[ScanEvent(0.0, "a0", scan_ranges((0, 1.0), (90, 3.25), (359, 4.5)))],
        wifi=[WifiScan(0.0, "a0", (("ap00", -50.5), ("ap01", -61.25)))],
        texts=[TextObservation(0.0, "a0", "ROOM A-101", "s_room0")],
    )


class TestRecording:
    def test_round_trip_is_exact(self, tmp_path):
        rec = sample_recording()
        path = tmp_path / "recording_a0.jsonl"
        save_recording(path, rec)
        assert load_recording(path) == rec

    def test_rewriting_a_loaded_recording_changes_no_bytes(self, tmp_path):
        first = tmp_path / "one.jsonl"
        second = tmp_path / "two.jsonl"
        save_recording(first, sample_recording())
        save_recording(second, load_recording(first))
        assert first.read_bytes() == second.read_bytes()

    def test_events_sorted_by_time_then_channel(self, tmp_path):
        path = tmp_path / "recording_a0.jsonl"
        save_recording(path, sample_recording())
        kinds = [json.loads(line)["kind"] for line in path.read_text().splitlines()]
        assert kinds == ["truth", "odom", "scan", "wifi", "text", "truth"]

    def test_blank_lines_are_tolerated(self, tmp_path):
        path = tmp_path / "recording_a0.jsonl"
        save_recording(path, sample_recording())
        path.write_text(path.read_text() + "\n\n")
        assert load_recording(path) == sample_recording()

    def test_missing_field_names_the_line(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"t": 0.0, "agent": "a0"}\n')
        with pytest.raises(ValueError, match=":1:"):
            load_recording(path)

    def test_unknown_event_kind_rejected(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"t": 0.0, "agent": "a0", "kind": "sonar", "payload": {}}\n')
        with pytest.raises(ValueError, match="sonar"):
            load_recording(path)

    def test_mixed_agents_rejected(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text(
            '{"t": 0.0, "agent": "a0", "kind": "odom", "payload": {"dx": 0, "dy": 0, "dtheta": 0}}\n'
            '{"t": 0.1, "agent": "a1", "kind": "odom", "payload": {"dx": 0, "dy": 0, "dtheta": 0}}\n'
        )
        with pytest.raises(ValueError, match="mixed agents"):
            load_recording(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="no events"):
            load_recording(path)

    def test_directory_discovery(self, tmp_path):
        recs = {"a0": sample_recording()}
        b = sample_recording()
        b.agent_id = "a1"
        b.texts = [TextObservation(0.0, "a1", "ROOM A-101", "s_room0")]
        b.wifi = [WifiScan(0.0, "a1", (("ap00", -50.5),))]
        b.scans = [ScanEvent(0.0, "a1", scan_ranges((45, 2.0)))]
        recs["a1"] = b
        save_recordings(tmp_path, recs)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "recording_a0.jsonl",
            "recording_a1.jsonl",
        ]
        assert recording_path(tmp_path, "a7").name == "recording_a7.jsonl"
        loaded = load_recordings(tmp_path)
        assert loaded == recs

    def test_noisy_scan_points_survive_save_and_load(self, tmp_path):
        plan = generate_floorplan(0, seed=5)
        waypoints = (((1.5, 1.5), 0.0), ((10.5, 1.5), 2.0), ((1.5, 1.5), 0.0))
        rec = simulate_recording(plan, AgentScript("a0", waypoints, seed=11))
        path = tmp_path / "recording.jsonl"
        save_recording(path, rec)
        loaded = load_recording(path)
        assert len(loaded.scans) == len(rec.scans) > 0
        for got, want in zip(loaded.scans, rec.scans):
            assert np.array_equal(got.cloud.points, want.cloud.points)

    def test_no_return_is_stored_as_null(self, tmp_path):
        path = tmp_path / "recording_a0.jsonl"
        save_recording(path, sample_recording())
        scan = next(r for r in map(json.loads, path.read_text().splitlines()) if r["kind"] == "scan")
        ranges = scan["payload"]["ranges"]
        assert len(ranges) == SCAN_RAY_COUNT
        assert (ranges[0], ranges[90], ranges[359]) == (1.0, 3.25, 4.5)
        assert ranges.count(None) == SCAN_RAY_COUNT - 3

    @pytest.mark.parametrize(
        "payload",
        [
            {"ranges": [1.0] * (SCAN_RAY_COUNT - 1)},
            {"ranges": ["1.0"] + [None] * (SCAN_RAY_COUNT - 1)},
            {"ranges": [math.nan] + [None] * (SCAN_RAY_COUNT - 1)},
            {"ranges": [math.inf] + [None] * (SCAN_RAY_COUNT - 1)},
            {"points": [[1.0, 2.0], [3.0, 4.5]]},
        ],
        ids=["wrong-length", "string-entry", "nan-entry", "infinite-entry", "points-payload"],
    )
    def test_malformed_scan_names_the_line(self, tmp_path, payload):
        path = tmp_path / "broken.jsonl"
        odom = {"t": 0.0, "agent": "a0", "kind": "odom", "payload": {"dx": 0, "dy": 0, "dtheta": 0}}
        scan = {"t": 0.0, "agent": "a0", "kind": "scan", "payload": payload}
        path.write_text(json.dumps(odom) + "\n" + json.dumps(scan) + "\n")
        with pytest.raises(ValueError, match=r"broken\.jsonl:2:"):
            load_recording(path)

    def test_two_files_for_one_agent_are_rejected(self, tmp_path):
        save_recordings(tmp_path, {"a0": sample_recording()})
        copy = tmp_path / "recording_copy.jsonl"
        copy.write_bytes(recording_path(tmp_path, "a0").read_bytes())
        with pytest.raises(ValueError, match="recording_a0.jsonl.*recording_copy.jsonl"):
            load_recordings(tmp_path)

    def test_discovery_of_nothing_is_an_error(self, tmp_path):
        with pytest.raises(ValueError, match="no recording"):
            load_recordings(tmp_path)


class TestFloorplan:
    def test_round_trip_preserves_every_field(self, tmp_path):
        plan = replace(
            generate_floorplan(2, seed=3),
            named_anchors=(("a0/start", (1.5, 1.5)), ("a2/end", (20.25, 1.5))),
        )
        path = tmp_path / "floorplan.json"
        save_floorplan(path, plan)
        loaded = load_floorplan(path)
        assert loaded.walls == plan.walls
        assert loaded.signs == plan.signs
        assert loaded.aps == plan.aps
        assert dict(loaded.named_anchors) == dict(plan.named_anchors)

    def test_rewrite_is_byte_stable(self, tmp_path):
        plan = generate_floorplan(2, seed=3)
        first = tmp_path / "one.json"
        second = tmp_path / "two.json"
        save_floorplan(first, plan)
        save_floorplan(second, load_floorplan(first))
        assert first.read_bytes() == second.read_bytes()


class TestMatchReport:
    C_FINITE = MatchCandidate(
        ("a0", 0), ("a1", 3), 0.91, WifiMatchScore(0.75, 4.25, 0.83), Verdict.ACCEPTED
    )
    C_INF = MatchCandidate(
        ("a0", 1), ("a1", 4), 0.40, WifiMatchScore(0.0, math.inf, 0.0), Verdict.REJECTED_TEXT
    )

    def test_infinite_rss_distance_stored_as_null(self):
        row = candidate_to_dict(self.C_INF)
        assert row["rss_distance_db"] is None
        back = candidate_from_dict(row)
        assert back == self.C_INF
        assert math.isinf(back.wifi_score.rss_distance_db)

    def test_report_round_trip(self, tmp_path):
        path = tmp_path / "match_report.json"
        verified = [[("a0", 0), ("a1", 3)]]
        settings = {"alpha": 0.8, "beta": 0.8, "gamma": 0.8}
        save_match_report(path, [self.C_FINITE, self.C_INF], verified, settings)
        assert load_match_report(path) == [self.C_FINITE, self.C_INF]
        document = json.loads(path.read_text())
        assert document["verified_locations"] == [[["a0", 0], ["a1", 3]]]
        assert document["settings"] == settings


class TestTrajectories:
    def test_round_trip_with_extras(self, tmp_path):
        initial = {("a0", 0): Pose2(0.0, 0.0, 0.0), ("a0", 1): Pose2(1.0, 0.5, 0.2)}
        optimized = {k: Pose2(p.x + 0.1, p.y, p.theta) for k, p in initial.items()}
        extras = {"travel_distance_m": 257.3, "loop_edge_count": 4}
        path = tmp_path / "trajectories.json"
        save_trajectories(path, initial, optimized, extras)
        got_initial, got_optimized, got_extras = load_trajectories(path)
        assert got_initial == initial
        assert got_optimized == optimized
        assert got_extras == extras

    def test_keys_restored_as_typed_tuples(self, tmp_path):
        path = tmp_path / "trajectories.json"
        save_trajectories(path, {("a0", 7): Pose2.identity()}, {}, {})
        got_initial, _, _ = load_trajectories(path)
        assert list(got_initial) == [("a0", 7)]


class TestMergedMap:
    def test_round_trip(self, tmp_path):
        cloud = PointCloud2([[0.0, 1.0], [2.5, -3.25]], frame_id="merged")
        path = tmp_path / "merged_map.json"
        save_merged_map(path, cloud)
        assert load_merged_map(path) == cloud

    def test_empty_map_round_trip(self, tmp_path):
        cloud = PointCloud2(np.zeros((0, 2)), frame_id="merged")
        path = tmp_path / "merged_map.json"
        save_merged_map(path, cloud)
        loaded = load_merged_map(path)
        assert loaded == cloud
        assert loaded.points.shape == (0, 2)
