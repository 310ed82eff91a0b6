"""Run configuration: defaults, file and flag overlays.

Precedence, lowest to highest: dataclass defaults, config file,
command-line flags. The defaults are the operating point of the scripted
scenes; validation rejects values no stage can run with, including a
value of the wrong type and a scenario name the scenarios module does not
know.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Union, get_type_hints

from .place_recognition import Thresholds
from .scenarios import scenario_names

PathLike = Union[str, Path]


@dataclass
class RunConfig:
    scenario: str = "scene01"
    seed: int = 0
    out_dir: str = "out"
    # Gate thresholds.
    alpha: float = 0.8
    beta: float = 0.8
    gamma: float = 0.8
    min_loop_separation_s: float = 30.0
    # The scenes space access points about a room apart, so same-place
    # fingerprints taken a couple of meters apart differ by 10-23 dB while
    # different-place ones sit above 27 dB; the 32 dB kernel puts the gate
    # threshold inside that gap, where wifi's 10 dB library default would
    # reject most genuine revisits.
    sigma_scale_db: float = 32.0
    fingerprint_window_s: float = 3.0
    # Scan registration. Cross-agent registration starts from drifted
    # odometry, hence a correspondence radius wider than icp's 1 m default.
    icp_max_iterations: int = 50
    icp_correspondence_radius_m: float = 2.0
    icp_tolerance: float = 1e-5
    # Pose-graph optimization.
    optimizer_max_iterations: int = 50
    robust_kernel_scale: float = 1.0
    # World generation and simulation.
    duplicate_text_count: int = 3
    zero_noise: bool = False
    # Outputs.
    voxel_size_m: float = 0.0
    sweep: bool = False

    def validate(self) -> None:
        for name, kind in _FIELD_TYPES.items():
            value = getattr(self, name)
            # bool is a subclass of int, and a JSON number with no fraction reads as int.
            accepted = (int, float) if kind is float else kind
            if not isinstance(value, accepted) or (isinstance(value, bool) and kind is not bool):
                raise ValueError(
                    f"{name} must be of type {kind.__name__}, "
                    f"got {type(value).__name__} {value!r}"
                )
        if self.scenario not in scenario_names():
            raise ValueError(
                f"unknown scenario {self.scenario!r}, known: {', '.join(scenario_names())}"
            )
        for name in ("alpha", "beta", "gamma"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        for name in (
            "min_loop_separation_s",
            "sigma_scale_db",
            "fingerprint_window_s",
            "icp_correspondence_radius_m",
            "icp_tolerance",
            "robust_kernel_scale",
        ):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        for name in ("icp_max_iterations", "optimizer_max_iterations"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.duplicate_text_count < 0:
            raise ValueError("duplicate_text_count must be non-negative")
        if self.voxel_size_m < 0.0:
            raise ValueError("voxel_size_m must be non-negative")

    def thresholds(self) -> Thresholds:
        return Thresholds(
            alpha=self.alpha,
            beta=self.beta,
            gamma=self.gamma,
            min_loop_separation_s=self.min_loop_separation_s,
        )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


_FIELD_NAMES = {f.name for f in dataclasses.fields(RunConfig)}
_FIELD_TYPES = get_type_hints(RunConfig)


def load_config_file(path: PathLike) -> dict:
    """Read a config document and reject keys we would silently ignore."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = sorted(set(data) - _FIELD_NAMES)
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {', '.join(unknown)}")
    return data


def build_config(
    *,
    config_path: Optional[PathLike] = None,
    flag_overrides: Optional[Mapping] = None,
) -> RunConfig:
    """Merge defaults, file values, and flags, in that order."""
    file_values = load_config_file(config_path) if config_path else {}
    flags = {k: v for k, v in dict(flag_overrides or {}).items() if v is not None}
    unknown = sorted(set(flags) - _FIELD_NAMES)
    if unknown:
        raise ValueError(f"unknown config overrides: {', '.join(unknown)}")

    cfg = RunConfig(**{**file_values, **flags})
    cfg.validate()
    return cfg


def config_for_scenario(name: str, **overrides) -> RunConfig:
    """Defaults for a named scene plus keyword overrides; the programmatic entry point."""
    return build_config(flag_overrides={"scenario": name, **overrides})
