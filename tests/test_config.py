"""Configuration schema: defaults, validation, round trips, builders."""

import math

import numpy as np
import pytest

from primtrack.config import RunConfig, example_text


def test_defaults_round_trip_identity():
    cfg = RunConfig()
    back = RunConfig.loads(cfg.dumps())
    assert back.values == cfg.values


def test_annotated_dump_parses_and_marks_non_paper():
    text = example_text()
    assert "tuned default" in text
    back = RunConfig.loads(text)
    assert back.values == RunConfig().values


def test_unknown_section_and_key_rejected():
    with pytest.raises(ValueError):
        RunConfig.loads("[bogus]\nx = 1\n")
    with pytest.raises(ValueError):
        RunConfig.loads("[lattice]\nbogus_key = 1\n")
    with pytest.raises(ValueError):
        RunConfig({"bogus": {}})
    with pytest.raises(ValueError):
        RunConfig({"lattice": {"bogus_key": 1}})


def test_overrides_merge_with_defaults():
    cfg = RunConfig.loads("[simulator]\nv_max = 4.0\n")
    assert cfg["simulator"]["v_max"] == 4.0
    assert cfg["simulator"]["a_max"] == 6.0  # untouched default
    assert cfg["lattice"]["m_phi"] == 5


def test_value_types_preserved():
    cfg = RunConfig.loads("[train]\nepochs = 7\nlearning_rate = 0.01\n"
                          "optimizer = adam\n")
    assert cfg["train"]["epochs"] == 7
    assert isinstance(cfg["train"]["epochs"], int)
    assert cfg["train"]["learning_rate"] == 0.01
    assert cfg["train"]["optimizer"] == "adam"


def test_save_load_file_round_trip(tmp_path):
    cfg = RunConfig.loads("[run]\nseeds = 3 5 7\n")
    cfg.save(tmp_path / "c.ini")
    back = RunConfig.load(tmp_path / "c.ini")
    assert back.values == cfg.values
    assert back.seeds == [3, 5, 7]


def test_lattice_builder():
    lat = RunConfig().lattice_config()
    assert lat.m_phi == 5 and lat.m_theta == 3 and lat.r == 5.0
    assert np.isclose(lat.fov_h, math.pi / 2)
    assert np.isclose(lat.fov_v, 2 * math.atan(math.tan(math.pi / 4) * 9 / 16))


def test_sim_params_builder_applies_collision_override():
    cfg = RunConfig()
    p = cfg.sim_params()
    # the closed-loop build overrides the open-loop collision weight
    assert p.weights.lambda_c == cfg["simulator"]["collision_weight"]
    assert p.weights.lambda_s == cfg["cost"]["lambda_s"]
    assert p.v_max == 8.0 and p.refine_steps == 8
    assert p.detection.max_depth == 20.0


def test_forest_spec_builder():
    spec = RunConfig().forest_spec(seed=11)
    assert spec.seed == 11
    assert spec.min_spacing is None  # 0 disables the hard core
    spec2 = RunConfig.loads("[simulator]\nmin_spacing = 4.0\n").forest_spec(0)
    assert spec2.min_spacing == 4.0


def test_cost_and_sampler_builders():
    cfg = RunConfig()
    w = cfg.cost_weights()
    assert (w.lambda_s, w.lambda_c, w.lambda_g) == (0.1, 1.0, 1.0)
    pot = cfg.potential_params(1.25)
    assert np.isclose(pot.dt, 1.25 / 20.0)
    s = cfg.sampler()
    assert s.v_m == 8.8
    assert cfg.hidden_sizes() == (64, 64)
