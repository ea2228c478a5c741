"""Tests for the closed-schema INI configuration."""

import pytest

from stagelab import ConfigError
from stagelab.config import DEFAULTS, ExperimentConfig, load_config, loads_config


def test_defaults_load_without_a_file():
    cfg = load_config(None)
    assert cfg.get("task", "n") == 6
    assert cfg.get("pretrain", "eta") == 0.02
    assert cfg.get("sweep", "mix_fractions") == (0.0, 0.5)
    assert cfg.get("verify", "literal_inconsistent") is False
    assert cfg.projection() == "ret_ft"


def test_empty_text_equals_the_defaults():
    assert loads_config("").canonical() == load_config(None).canonical()


def test_file_values_override_defaults(tmp_path):
    path = tmp_path / "lab.ini"
    path.write_text(
        "[pretrain]\nsteps = 123\nmix_fraction = 0.5\n[task]\nbasis = random\nbasis_seed = 7\n"
    )
    cfg = load_config(str(path))
    assert cfg.get("pretrain", "steps") == 123
    assert cfg.get("pretrain", "mix_fraction") == 0.5
    # untouched sections keep their defaults
    assert cfg.get("posttrain", "steps") == 2000
    family = cfg.task_family()
    assert not family.basis.is_identity


def test_unknown_section_is_rejected_by_name():
    with pytest.raises(ConfigError, match=r"unknown section \[pretraining\]"):
        loads_config("[pretraining]\nsteps = 5\n")


def test_unknown_key_is_rejected_by_name():
    with pytest.raises(ConfigError, match=r"unknown key 'lerning_rate' in section \[posttrain\]"):
        loads_config("[posttrain]\nlerning_rate = 0.1\n")


def test_type_errors_name_the_location():
    with pytest.raises(ConfigError, match=r"cannot parse \[pretrain\] steps = 'soon' as int"):
        loads_config("[pretrain]\nsteps = soon\n")
    with pytest.raises(ConfigError, match=r"as float"):
        loads_config("[init]\ntau = tall\n")


def test_bool_words_parse_strictly():
    assert loads_config("[verify]\nliteral_inconsistent = yes\n").get(
        "verify", "literal_inconsistent"
    ) is True
    assert loads_config("[verify]\nliteral_inconsistent = 0\n").get(
        "verify", "literal_inconsistent"
    ) is False
    with pytest.raises(ConfigError, match="as bool"):
        loads_config("[verify]\nliteral_inconsistent = maybe\n")


def test_float_lists_allow_spaces_and_trailing_commas():
    cfg = loads_config("[sweep]\neta2 = 0.01, 0.02,0.03\n")
    assert cfg.get("sweep", "eta2") == (0.01, 0.02, 0.03)
    assert loads_config("[sweep]\neta2 = 0.01,\n").get("sweep", "eta2") == (0.01,)
    # an empty list parses; commands that need a non-empty grid reject it later
    assert loads_config("[sweep]\neta2 =\n").get("sweep", "eta2") == ()


def test_malformed_ini_is_reported_as_such():
    with pytest.raises(ConfigError, match="malformed config"):
        loads_config("steps = 5\n")


def test_missing_config_file():
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config("/nonexistent/dir/lab.ini")


def test_stage_plans_reflect_the_stage_sections():
    pre, post, ft = load_config(None).stage_plans()
    assert (pre.stage, post.stage, ft.stage) == ("pretrain", "posttrain", "finetune")
    assert (pre.steps, post.steps, ft.steps) == (3000, 2000, 2000)
    assert post.ridge_lambda == 0.1
    assert post.replay_fraction == 0.01
    assert pre.mix_fraction == 0.0


def test_sweep_plans_cover_the_whole_grid():
    stage1, stage2, stage3 = load_config(None).sweep_plans()
    assert [p.mix_fraction for p in stage1] == [0.0, 0.5]
    assert [p.eta for p in stage2] == [0.008, 0.012, 0.02]
    assert all(p.steps == 250 for p in stage2)
    assert [p.eta for p in stage3] == [0.0003, 0.001, 0.003, 0.01, 0.05]
    assert all(p.steps == 300 for p in stage3)


def test_verify_kwargs_round_trip():
    assert load_config(None).verify_kwargs() == {
        "alpha": 0.5,
        "epsilon": 0.1,
        "literal_inconsistent": False,
        "acquisition_steps": 40000,
        "routing_steps": 10000,
    }


def test_task_family_and_init_state_construction():
    import math

    cfg = load_config(None)
    family = cfg.task_family()
    assert family.n == 6
    assert family.basis.is_identity
    state = cfg.init_state()
    assert state.W1[0, 0] == math.exp(-12.0)

    with pytest.raises(ConfigError, match="basis must be"):
        loads_config("[task]\nbasis = fourier\n").task_family()


def test_canonical_text_is_stable_and_value_sensitive():
    explicit_default = loads_config("[pretrain]\nsteps = 3000\n").canonical()
    assert explicit_default == load_config(None).canonical()
    assert "pretrain.steps=3000" in explicit_default
    changed = loads_config("[pretrain]\nsteps = 2999\n").canonical()
    assert changed != explicit_default


def test_every_default_is_typed_and_self_consistent():
    cfg = load_config(None)
    for section, keys in DEFAULTS.items():
        for key, (tag, default) in keys.items():
            assert cfg.get(section, key) == default
            assert tag in ("int", "float", "bool", "str", "floats")
    assert isinstance(cfg, ExperimentConfig)
