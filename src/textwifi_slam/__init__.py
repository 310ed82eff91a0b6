"""Multi-agent 2D mapping with text- and WiFi-based place recognition.

The package splits into world simulation (world, simulate, scenarios),
place recognition (text_matching, wifi, place_recognition), geometry and
registration (geometry, icp), back-end estimation (pose_graph), and the
harness around it all (evaluation, io_formats, config, pipeline, cli).
"""

from .config import RunConfig, build_config, config_for_scenario
from .evaluation import (
    EpeReport,
    PrMetrics,
    ScoreReport,
    end_point_error,
    score_candidates,
    threshold_sweep,
)
from .geometry import PointCloud2, Pose2, compose, inverse, relative_pose, transform_cloud
from .icp import IcpResult, icp_register, icp_register_multistart
from .pipeline import PipelineResult, run_all
from .place_recognition import (
    Keyframe,
    MatchCandidate,
    Thresholds,
    Verdict,
    decide_match,
    extract_keyframes,
    generate_candidates,
    match_all,
    verified_locations,
)
from .pose_graph import (
    PoseGraph,
    PoseGraphEdge,
    build_pose_graph,
    merge_maps,
    optimize_pose_graph,
    register_keyframe_pair,
)
from .scenarios import scenario_names, scripted_scenario
from .simulate import AgentScript, NoiseModel, Recording, integrate_odometry, simulate_recording
from .text_matching import TextObservation, corrupt_text, edit_distance, text_similarity
from .wifi import (
    AccessPoint,
    WifiFingerprint,
    WifiMatchScore,
    WifiScan,
    build_fingerprint,
    filter_and_average,
    is_wifi_match,
    mac_similarity,
    predicted_rss,
    rss_distance,
    rss_similarity,
)
from .world import FloorPlan, CorridorTemplate, Sign, generate_floorplan, raycast

__version__ = "0.1.0"

__all__ = [
    "AccessPoint",
    "AgentScript",
    "CorridorTemplate",
    "EpeReport",
    "FloorPlan",
    "IcpResult",
    "Keyframe",
    "MatchCandidate",
    "NoiseModel",
    "PipelineResult",
    "PointCloud2",
    "Pose2",
    "PoseGraph",
    "PoseGraphEdge",
    "PrMetrics",
    "Recording",
    "RunConfig",
    "ScoreReport",
    "Sign",
    "TextObservation",
    "Thresholds",
    "Verdict",
    "WifiFingerprint",
    "WifiMatchScore",
    "WifiScan",
    "build_config",
    "build_fingerprint",
    "build_pose_graph",
    "compose",
    "config_for_scenario",
    "corrupt_text",
    "decide_match",
    "edit_distance",
    "end_point_error",
    "extract_keyframes",
    "filter_and_average",
    "generate_candidates",
    "generate_floorplan",
    "icp_register",
    "icp_register_multistart",
    "integrate_odometry",
    "inverse",
    "is_wifi_match",
    "mac_similarity",
    "match_all",
    "merge_maps",
    "optimize_pose_graph",
    "predicted_rss",
    "raycast",
    "register_keyframe_pair",
    "relative_pose",
    "rss_distance",
    "rss_similarity",
    "run_all",
    "scenario_names",
    "score_candidates",
    "scripted_scenario",
    "simulate_recording",
    "text_similarity",
    "threshold_sweep",
    "transform_cloud",
    "verified_locations",
]
