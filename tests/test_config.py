"""Configuration defaults, validation, and layering."""

import json

import pytest

from textwifi_slam.config import RunConfig, build_config, config_for_scenario, load_config_file
from textwifi_slam.place_recognition import Thresholds

# Every setting a run may vary, and so every key a config file may hold.
SETTINGS = (
    "scenario", "seed", "alpha", "beta", "gamma",
    "duplicate_text_count", "zero_noise", "sweep",
)


def test_defaults_are_self_consistent():
    cfg = RunConfig()
    cfg.validate()
    assert cfg.scenario == "scene01"
    assert (cfg.alpha, cfg.beta, cfg.gamma) == (0.8, 0.8, 0.8)
    assert sorted(cfg.to_dict()) == sorted(SETTINGS)


def test_thresholds_view_carries_the_gate_values():
    cfg = RunConfig(alpha=0.7, beta=0.75, gamma=0.9)
    assert cfg.thresholds() == Thresholds(alpha=0.7, beta=0.75, gamma=0.9)


@pytest.mark.parametrize(
    "field,value",
    [
        ("alpha", 1.5),
        ("beta", -0.1),
        ("gamma", 2.0),
        ("seed", -1),
        ("duplicate_text_count", -2),
        ("duplicate_text_count", 9),
        ("scenario", "bench"),
    ],
)
def test_validate_rejects_out_of_range_values(field, value):
    cfg = RunConfig(**{field: value})
    with pytest.raises(ValueError, match=field):
        cfg.validate()


@pytest.mark.parametrize(
    "field,value",
    [
        ("zero_noise", "false"),
        ("sweep", 1),
        ("alpha", "0.8"),
        ("gamma", True),
        ("seed", 1.5),
        ("seed", True),
        ("duplicate_text_count", 3.0),
        ("scenario", 1),
    ],
)
def test_validate_rejects_values_of_the_wrong_type(field, value):
    cfg = RunConfig(**{field: value})
    with pytest.raises(ValueError, match=f"{field} must be of type"):
        cfg.validate()


def test_float_fields_take_ints():
    cfg = RunConfig(alpha=1, beta=0, gamma=1)
    cfg.validate()


def test_scenario_tuning_applies_to_known_scenes():
    # Every known scene runs at the same operating point, held in the defaults.
    for name in ("scene01", "scene02"):
        assert config_for_scenario(name) == RunConfig(scenario=name)


def test_flags_override_file_which_overrides_tuning(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"scenario": "scene02", "alpha": 0.6, "seed": 4}))

    cfg = build_config(config_path=path)
    assert cfg.scenario == "scene02"
    assert cfg.beta == 0.8  # the default, which the file leaves alone
    assert cfg.alpha == 0.6
    assert cfg.seed == 4

    cfg = build_config(config_path=path, flag_overrides={"alpha": 0.95, "seed": None})
    assert cfg.alpha == 0.95  # flag beats file
    assert cfg.seed == 4  # a None flag is "not given", not an override



def test_file_cannot_set_a_module_constant(tmp_path):
    # The RSS kernel scale is wifi.SIGMA_SCALE_DB, not a run setting.
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"scenario": "scene01", "sigma_scale_db": 20.0}))
    with pytest.raises(ValueError, match="unknown config keys: sigma_scale_db"):
        build_config(config_path=path)


def test_file_cannot_name_the_artifact_directory(tmp_path):
    # The CLI's --out names the directory; the settings live inside it.
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"scenario": "scene01", "out_dir": "runs/demo"}))
    with pytest.raises(ValueError, match="unknown config keys: out_dir"):
        build_config(config_path=path)


def test_scenario_flag_decides_which_tuning_applies(tmp_path):
    # The file names scene01 and retunes a value; the flag switches the
    # scenario. The flag decides the scenario, and the file's values stay.
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"scenario": "scene01", "alpha": 0.6}))
    cfg = build_config(config_path=path, flag_overrides={"scenario": "scene02"})
    assert cfg.scenario == "scene02"
    assert cfg.alpha == 0.6


def test_unknown_keys_are_rejected(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"alhpa": 0.9}))
    with pytest.raises(ValueError, match="alhpa"):
        load_config_file(path)
    with pytest.raises(ValueError, match="no_such_knob"):
        build_config(flag_overrides={"no_such_knob": 1})


def test_config_file_must_be_an_object(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(ValueError, match="JSON object"):
        load_config_file(path)


def test_invalid_merged_config_fails_validation(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"gamma": 2.0}))
    with pytest.raises(ValueError, match="gamma"):
        build_config(config_path=path)


def test_round_trip_through_to_dict():
    cfg = config_for_scenario("scene01", seed=7, sweep=True)
    clone = RunConfig(**cfg.to_dict())
    assert clone == cfg
