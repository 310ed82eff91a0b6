"""Serialization: exact round trips, byte determinism, format validation."""

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from textwifi_slam import io_formats
from textwifi_slam.geometry import PointCloud2, Pose2
from textwifi_slam.io_formats import (
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


def reference_dumps(row) -> str:
    return json.dumps(row, sort_keys=True, allow_nan=False, separators=(",", ":"))


def reference_recording_text(rec: Recording) -> str:
    """One json.dumps per event, sorted by time and then channel."""
    order = {"truth": 0, "odom": 1, "scan": 2, "wifi": 3, "text": 4}
    events = []

    def add(t, kind, payload):
        row = {"t": t, "agent": rec.agent_id, "kind": kind, "payload": payload}
        events.append((t, order[kind], row))

    for s in rec.truth:
        add(s.timestamp, "truth", {"x": s.pose.x, "y": s.pose.y, "theta": s.pose.theta})
    for o in rec.odometry:
        add(o.timestamp, "odom", {"dx": o.dx, "dy": o.dy, "dtheta": o.dtheta})
    for sc in rec.scans:
        ranges = [None if r == math.inf else r for r in sc.ranges.tolist()]
        add(sc.timestamp, "scan", {"ranges": ranges})
    for w in rec.wifi:
        add(w.timestamp, "wifi", {"readings": [[mac, rss] for mac, rss in w.readings]})
    for tx in rec.texts:
        add(tx.timestamp, "text", {"string": tx.text, "sign_id_truth": tx.sign_id_truth})
    events.sort(key=lambda e: (e[0], e[1]))
    return "".join(reference_dumps(row) + "\n" for _, _, row in events)


def edge_case_recording() -> Recording:
    """Every channel, with the float texts and strings a writer can get wrong."""
    agent = "agënt,7"
    return Recording(
        agent_id=agent,
        truth=[
            TruthSample(0.0, Pose2(1.0, 1e-05, 0.5)),
            TruthSample(1e16, Pose2(1e16, -0.0, -1e-05)),
            TruthSample(0.5, Pose2(-0.0, 3, 1.0)),
        ],
        odometry=[OdometryStep(1e-05, 1.0, -0.0, 1e16), OdometryStep(0.5, 0, 1e-05, -0.0)],
        scans=[
            ScanEvent(0.5, agent, scan_ranges((0, 1.0), (1, 1e-05), (359, 1e16))),
            ScanEvent(1.0, agent, scan_ranges()),
        ],
        wifi=[
            WifiScan(0.5, agent, ()),
            WifiScan(1.0, agent, (("ap,00", -0.0), ("äp\"01", -1e-05), ("ap02", -1e16))),
        ],
        texts=[
            TextObservation(0.5, agent, "CAFÉ «Ω», 1", "s_ü"),
            TextObservation(1e16, agent, "EXIT", None),
        ],
    )


def broken(rec: Recording, channel: str, index: int, name: str, value) -> Recording:
    """rec with one field of a frozen event overwritten, past its validation."""
    event = getattr(rec, channel)[index]
    object.__setattr__(event.pose if channel == "truth" else event, name, value)
    return rec


class TestRecording:
    def test_bytes_equal_one_dumps_per_event(self, tmp_path):
        rec = edge_case_recording()
        path = tmp_path / "recording.jsonl"
        save_recording(path, rec)
        assert path.read_bytes() == reference_recording_text(rec).encode("utf-8")
        again = tmp_path / "again.jsonl"
        save_recording(again, load_recording(path))
        assert again.read_bytes() == path.read_bytes()

    def test_simulated_bytes_equal_one_dumps_per_event(self, tmp_path):
        plan = generate_floorplan(0, seed=5)
        waypoints = (((1.5, 1.5), 0.0), ((10.5, 1.5), 2.0), ((1.5, 1.5), 0.0))
        rec = simulate_recording(plan, AgentScript("a0", waypoints, seed=11))
        path = tmp_path / "recording.jsonl"
        save_recording(path, rec)
        assert path.read_bytes() == reference_recording_text(rec).encode("utf-8")

    @pytest.mark.parametrize(
        "where",
        [
            ("truth", 1, "theta", math.nan),
            ("truth", 0, "x", math.inf),
            ("odometry", 0, "dy", -math.inf),
            ("odometry", 1, "dtheta", math.nan),
            ("wifi", 1, "readings", (("ap00", -50.0), ("ap01", math.inf))),
            ("wifi", 1, "readings", (("ap00", math.nan),)),
        ],
        ids=["truth-nan", "truth-inf", "odom-inf", "odom-nan", "rss-inf", "rss-nan"],
    )
    def test_a_non_finite_value_is_not_written(self, tmp_path, where):
        path = tmp_path / "recording.jsonl"
        with pytest.raises(ValueError, match="not JSON compliant"):
            save_recording(path, broken(edge_case_recording(), *where))
        assert not path.exists()

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

    def test_broken_json_names_the_file_and_line(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        save_recording(path, sample_recording())
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:22]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"broken\.jsonl:2: Unterminated string"):
            load_recording(path)

    @pytest.mark.parametrize(
        "payload",
        [
            {"kind": "truth", "payload": {"x": 0.0, "y": 0.0}},
            {"kind": "odom", "payload": {"dx": 0.0, "dtheta": 0.0}},
            {"kind": "wifi", "payload": {}},
            {"kind": "text", "payload": {"sign_id_truth": "s0"}},
            {"kind": "truth", "payload": [0.0, 0.0, 0.0]},
        ],
        ids=["truth-without-theta", "odom-without-dy", "wifi-without-readings",
             "text-without-string", "truth-list"],
    )
    def test_malformed_payload_names_the_file_and_line(self, tmp_path, payload):
        path = tmp_path / "broken.jsonl"
        odom = {"t": 0.0, "agent": "a0", "kind": "odom", "payload": {"dx": 0, "dy": 0, "dtheta": 0}}
        event = {"t": 0.1, "agent": "a0", **payload}
        path.write_text(json.dumps(odom) + "\n\n" + json.dumps(event) + "\n")
        kind = payload["kind"]
        with pytest.raises(ValueError, match=rf"broken\.jsonl:3: malformed {kind} payload"):
            load_recording(path)

    def test_an_event_split_over_two_lines_is_an_error(self, tmp_path):
        # Joined with a comma, the two halves parse as one event; alone,
        # neither does.
        path = tmp_path / "broken.jsonl"
        save_recording(path, sample_recording())
        text = path.read_text()
        path.write_text(text.replace(',"kind":"odom"', '\n"kind":"odom"', 1))
        with pytest.raises(ValueError, match=r"broken\.jsonl:2: Expecting ',' delimiter"):
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

    @pytest.mark.parametrize(
        "spoil, field",
        [
            (lambda doc: doc["signs"][1].pop("text"), "text"),
            (lambda doc: doc["access_points"][0].pop("wall_attenuation_db"), "wall_attenuation_db"),
            (lambda doc: doc.pop("walls_m"), "walls_m"),
            (lambda doc: doc.pop("anchors_m"), "anchors_m"),
        ],
        ids=["sign-text", "ap-wall-attenuation", "walls", "anchors"],
    )
    def test_a_missing_field_names_the_file_and_field(self, tmp_path, spoil, field):
        path = tmp_path / "floorplan.json"
        save_floorplan(path, generate_floorplan(2, seed=3))
        document = json.loads(path.read_text())
        spoil(document)
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: missing field '{field}'$"):
            load_floorplan(path)


class TestMatchReport:
    C_FINITE = MatchCandidate(
        ("a0", 0), ("a1", 3), 0.91, WifiMatchScore(0.75, 4.25, 0.83), Verdict.ACCEPTED
    )
    C_INF = MatchCandidate(
        ("a0", 1), ("a1", 4), 0.40, WifiMatchScore(0.0, math.inf, 0.0), Verdict.REJECTED_TEXT
    )

    def test_infinite_rss_distance_stored_as_null(self, tmp_path):
        path = tmp_path / "match_report.json"
        save_match_report(path, [self.C_INF], [], {})
        row = json.loads(path.read_text())["candidates"][0]
        assert row["rss_distance_db"] is None
        (back,) = load_match_report(path)
        assert back == self.C_INF
        assert math.isinf(back.wifi_score.rss_distance_db)

    @staticmethod
    def reference_report_text(candidates, verified, settings) -> str:
        def row(c):
            d = c.wifi_score.rss_distance_db
            return {
                "a": [c.a[0], c.a[1]],
                "b": [c.b[0], c.b[1]],
                "text_score": c.text_score,
                "mac_similarity": c.wifi_score.mac_similarity,
                "rss_distance_db": None if math.isinf(d) else d,
                "rss_similarity": c.wifi_score.rss_similarity,
                "verdict": c.verdict.value,
            }

        document = {
            "settings": dict(settings),
            "candidates": [row(c) for c in candidates],
            "verified_locations": [[[k[0], k[1]] for k in group] for group in verified],
        }
        return reference_dumps(document) + "\n"

    def test_bytes_equal_one_dumps_of_the_document(self, tmp_path):
        candidates = [
            self.C_FINITE,
            self.C_INF,
            MatchCandidate(
                ("a,0", 0), ("ä1", 12), 1e-05,
                WifiMatchScore(1.0, -0.0, 1e16), Verdict.REJECTED_RSS,
            ),
            MatchCandidate(
                ("a,0", 3), ("a1", 4), 1.0,
                WifiMatchScore(0.5, -math.inf, 0.0), Verdict.REJECTED_MAC,
            ),
        ]
        verified = [[("a,0", 0), ("ä1", 12)], [("a0", 0), ("a1", 3), ("a1", 4)]]
        settings = {"gamma": 0.8, "alpha": 1, "sigma_scale_db": 1e16, "min_loop_separation_s": 30}
        path = tmp_path / "match_report.json"
        save_match_report(path, candidates, verified, settings)
        reference = self.reference_report_text(candidates, verified, settings)
        assert path.read_bytes() == reference.encode("utf-8")

    @pytest.mark.parametrize("rows_per_write", [1, 2, 3, 1024])
    def test_bytes_do_not_depend_on_the_rows_per_write(
        self, tmp_path, monkeypatch, rows_per_write
    ):
        monkeypatch.setattr(io_formats, "_REPORT_ROWS_PER_WRITE", rows_per_write)
        candidates = [
            replace(self.C_FINITE, a=("a0", i), text_score=i / 7.0) for i in range(5)
        ] + [self.C_INF]
        path = tmp_path / "match_report.json"
        save_match_report(path, candidates, [], {"alpha": 0.8})
        reference = self.reference_report_text(candidates, [], {"alpha": 0.8})
        assert path.read_bytes() == reference.encode("utf-8")
        assert load_match_report(path) == candidates

    def test_empty_report_bytes(self, tmp_path):
        path = tmp_path / "match_report.json"
        save_match_report(path, [], [], {"alpha": 0.8})
        assert path.read_text() == self.reference_report_text([], [], {"alpha": 0.8})

    @pytest.mark.parametrize("field", ["text_score", "mac_similarity", "rss_similarity"])
    def test_a_non_finite_score_is_not_written(self, tmp_path, monkeypatch, field):
        cand = self.C_FINITE
        if field == "text_score":
            cand = replace(cand, text_score=math.nan)
        else:
            cand = replace(cand, wifi_score=replace(cand.wifi_score, **{field: math.inf}))
        path = tmp_path / "match_report.json"
        monkeypatch.setattr(io_formats, "_REPORT_ROWS_PER_WRITE", 1)
        with pytest.raises(ValueError, match="not JSON compliant"):
            save_match_report(path, [self.C_FINITE, cand], [], {})
        assert not path.exists()

    @pytest.mark.parametrize(
        "spoil, message",
        [
            (lambda row: row.pop("verdict"), "candidate 1: missing field 'verdict'"),
            (lambda row: row.update(verdict="maybe"), "candidate 1: unknown verdict 'maybe'"),
            (lambda row: row.update(a=["a0"]), "candidate 1: a node key is an agent and a keyframe id"),
            (lambda row: row.update(b=None), "candidate 1: a node key is an agent and a keyframe id"),
        ],
        ids=["missing-field", "unknown-verdict", "short-node-key", "null-node-key"],
    )
    def test_a_malformed_row_is_named_by_file_and_index(self, tmp_path, spoil, message):
        path = tmp_path / "match_report.json"
        save_match_report(path, [self.C_FINITE, self.C_INF], [], {})
        document = json.loads(path.read_text())
        spoil(document["candidates"][1])
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {re.escape(message)}"):
            load_match_report(path)

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

    @pytest.mark.parametrize(
        "spoil, field",
        [
            (lambda doc: doc.pop("optimized"), "optimized"),
            (lambda doc: doc["initial"][0].pop("theta"), "theta"),
            (lambda doc: doc["optimized"][0].pop("agent"), "agent"),
        ],
        ids=["optimized", "pose-theta", "pose-agent"],
    )
    def test_a_missing_field_names_the_file_and_field(self, tmp_path, spoil, field):
        path = tmp_path / "trajectories.json"
        poses = {("a0", 7): Pose2(1.0, 2.0, 0.5)}
        save_trajectories(path, poses, poses, {"loop_edge_count": 0})
        document = json.loads(path.read_text())
        spoil(document)
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: missing field '{field}'$"):
            load_trajectories(path)


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
