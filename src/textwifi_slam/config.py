"""Run configuration: defaults, file and flag overlays.

A run varies only the settings held here: the scene and seed, the three
gate thresholds, the world's duplicate-text count and noise switch, and
the threshold sweep. Every other value of the operating point (RSS kernel
scale, fingerprint window, revisit separation, ICP and optimizer settings)
is a constant in the module that uses it; the artifact directory is the
CLI's --out, not a setting.

Precedence, lowest to highest: dataclass defaults, config file,
command-line flags (only on the commands that write config.json).
Validation rejects values no stage can run with, including a value of the
wrong type and a scenario name the scenarios module does not know. A config
file or override naming a key that is not a field here is rejected whole,
so none is silently ignored.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Union, get_type_hints

from .place_recognition import Thresholds
from .scenarios import scenario_names
from .world import DUPLICATE_TEXT_POOL

PathLike = Union[str, Path]


@dataclass
class RunConfig:
    scenario: str = "scene01"
    seed: int = 0
    # Gate thresholds.
    alpha: float = 0.8
    beta: float = 0.8
    gamma: float = 0.8
    # World generation and simulation.
    duplicate_text_count: int = 3
    zero_noise: bool = False
    # Outputs.
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
        self.thresholds()  # Thresholds owns the [0, 1] rule for alpha, beta and gamma.
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not 0 <= self.duplicate_text_count <= len(DUPLICATE_TEXT_POOL):
            raise ValueError(
                f"duplicate_text_count must be in [0, {len(DUPLICATE_TEXT_POOL)}]"
            )

    def thresholds(self) -> Thresholds:
        return Thresholds(alpha=self.alpha, beta=self.beta, gamma=self.gamma)

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
