"""Configuration schema: defaults, validation, round trips, builders."""

import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from primtrack import cli
from primtrack.config import _CHOICES, _SCHEMA, RunConfig, example_text
from primtrack.costs import CostWeights, PotentialParams
from primtrack.policy import StateSampler
from primtrack.primitives import LatticeConfig
from primtrack.simulator import SimParams, make_forest_arena


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


def test_train_mode_is_checked():
    for mode in ("navigation", "tracking"):
        assert RunConfig.loads(f"[train]\nmode = {mode}\n")["train"]["mode"] \
            == mode
    with pytest.raises(ValueError, match=r"\[train\] mode.*'tracknig'"):
        RunConfig.loads("[train]\nmode = tracknig\n")
    with pytest.raises(ValueError, match=r"\[train\] mode"):
        RunConfig({"train": {"mode": "Tracking"}})
    assert "navigation | tracking" in _SCHEMA["train"]["mode"][1]


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
    (tmp_path / "c.ini").write_text(cfg.dumps(annotate=True))
    back = RunConfig.load(tmp_path / "c.ini")
    assert back == cfg
    assert back.seeds == [3, 5, 7]


_INT_LISTS = {("run", "seeds"), ("train", "hidden")}
# the ranges LatticeConfig accepts
_LATTICE = {"m_phi": st.integers(1, 10**9), "m_theta": st.integers(1, 10**9),
            "fov_h_deg": st.floats(1e-3, 179.9),
            "fov_v_deg": st.floats(1e-3, 179.9), "radius": st.floats(1e-3, 1e9)}


def _valid_value(sec, key, default):
    if (sec, key) in _CHOICES:
        return st.sampled_from(_CHOICES[sec, key])
    if sec == "lattice":
        return _LATTICE[key]
    if (sec, key) in _INT_LISTS:  # seeds >= 0, hidden widths >= 1
        low = int(key == "hidden")
        return st.lists(st.integers(low, 10**6), min_size=1, max_size=5).map(
            lambda xs: " ".join(map(str, xs)))
    if isinstance(default, int):
        return st.integers(-10**9, 10**9)
    return st.floats(allow_nan=False, allow_infinity=False)


_CONFIGS = st.fixed_dictionaries({
    sec: st.fixed_dictionaries({
        key: _valid_value(sec, key, default)
        for key, (default, _) in keys.items()})
    for sec, keys in _SCHEMA.items()}).map(RunConfig)


@settings(max_examples=60, deadline=None)
@given(cfg=_CONFIGS, annotate=st.booleans())
def test_dumps_loads_identity(cfg, annotate):
    assert RunConfig.loads(cfg.dumps(annotate)) == cfg


def test_lattice_builder():
    lat = RunConfig().lattice
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


def test_forest_arena_builder():
    clear = [(0.0, 0.0), (40.0, 0.0)]
    arena = RunConfig().forest_arena(11, clear_points=clear)
    ref = make_forest_arena(11, clear_points=clear)  # 0 disables the hard core
    assert np.array_equal(arena.trunks, ref.trunks)
    assert np.array_equal(arena.grid.distance, ref.grid.distance)
    spaced = RunConfig.loads("[simulator]\nmin_spacing = 4.0\n").forest_arena(0)
    gaps = np.linalg.norm(spaced.trunks[:, None] - spaced.trunks[None], axis=-1)
    assert np.min(gaps + 1e9 * np.eye(len(gaps))) >= 4.0


def test_builders_match_dataclass_defaults():
    # one default per key: the schema's value and the dataclass field agree
    cfg = RunConfig()
    assert cfg.sim_params() == SimParams()
    assert cfg.sampler() == StateSampler()
    assert cfg.cost_weights() == CostWeights()
    assert cfg.lattice == LatticeConfig()
    assert cfg.potential_params() == PotentialParams()


def test_cost_and_sampler_builders():
    cfg = RunConfig()
    w = cfg.cost_weights()
    assert (w.lambda_s, w.lambda_c, w.lambda_g) == (0.1, 1.0, 1.0)
    pot = cfg.potential_params()
    assert (pot.d_safe, pot.falloff, pot.cutoff) == (0.4, 0.4, 2.0)
    s = cfg.sampler()
    assert s.v_m == 8.8
    assert cfg.hidden_sizes() == (64, 64)


# Keys the command line reads itself, with the function that reads each.
_READ_BY_CLI = {
    ("simulator", "evader_speed"): cli._run_batch,
    ("simulator", "course_length"): cli._run_batch,
    ("simulator", "goal_distance"): cli._run_batch,
    ("simulator", "switches"): cli._run_batch,
}


def _built(cfg: RunConfig, arena: bool):
    """Everything the builders make from cfg, as comparable text."""
    out = [cfg.lattice, cfg.cost_weights(),
           cfg.potential_params(), cfg.sim_params(), cfg.sampler()]
    text = repr(out)
    if arena:
        a = cfg.forest_arena(0)
        text += repr((a.trunks.tolist(), a.trunk_radius, a.trunk_height,
                      a.bounds, a.grid.dims, a.grid.resolution,
                      float(a.grid.distance.sum())))
    return text


def _perturbed(value):
    if isinstance(value, int):
        return value + 1
    return value * 0.8 if value else 1.0


def test_every_model_key_reaches_a_consumer():
    base = RunConfig()
    cheap, full = _built(base, False), _built(base, True)
    unread = []
    for sec in ("lattice", "cost", "observer", "simulator", "sampler"):
        for key, (default, _) in _SCHEMA[sec].items():
            if (sec, key) in _READ_BY_CLI:
                reader = inspect.getsource(_READ_BY_CLI[sec, key])
                assert f'"{key}"' in reader, (sec, key)
                continue
            cfg = RunConfig({sec: {key: _perturbed(default)}})
            if _built(cfg, False) == cheap and _built(cfg, True) == full:
                unread.append(f"[{sec}] {key}")
    assert not unread, unread
