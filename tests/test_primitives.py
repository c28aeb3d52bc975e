"""Anchor lattice geometry, spherical endpoints, and the planning horizon."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from primtrack.costs import decode_raw_batch
from primtrack.primitives import (LatticeConfig, build_library, horizon,
                                  spherical_endpoint)


def test_spherical_endpoint_known_points():
    assert np.allclose(spherical_endpoint(0.0, 0.0, 5.0), [5, 0, 0])
    assert np.allclose(spherical_endpoint(np.pi / 2, 0.0, 2.0), [0, 0, 2])
    assert np.allclose(spherical_endpoint(0.0, np.pi / 2, 3.0), [0, 3, 0])


def test_spherical_endpoint_norm_is_radius():
    rng = np.random.default_rng(0)
    th = rng.uniform(-1.2, 1.2, 100)
    ph = rng.uniform(-np.pi, np.pi, 100)
    r = rng.uniform(0.1, 8.0, 100)
    p = spherical_endpoint(th, ph, r)
    assert np.allclose(np.linalg.norm(p, axis=-1), r, atol=1e-12)


def test_lattice_defaults():
    cfg = LatticeConfig()
    assert cfg.n_cells == 15
    assert np.isclose(cfg.fov_h, np.deg2rad(90.0))
    # vertical FOV follows a 16:9 aspect of the horizontal
    assert np.isclose(cfg.fov_v, 2 * np.arctan(np.tan(cfg.fov_h / 2) * 9 / 16))
    # offset ranges are 1.25x the angular half-pitch
    assert np.isclose(cfg.d_phi, 1.25 * cfg.fov_h / (2 * cfg.m_phi))
    assert np.isclose(cfg.d_theta, 1.25 * cfg.fov_v / (2 * cfg.m_theta))


def test_lattice_cell_centers():
    cfg = LatticeConfig()
    az = cfg.azimuths()
    po = cfg.polars()
    assert len(az) == cfg.m_phi and len(po) == cfg.m_theta
    # symmetric about the optical axis, strictly inside the FOV
    assert np.allclose(az, -az[::-1], atol=1e-12)
    assert np.allclose(po, -po[::-1], atol=1e-12)
    assert np.all(np.abs(az) < cfg.fov_h / 2)
    assert np.all(np.abs(po) < cfg.fov_v / 2)
    pitch = cfg.fov_h / cfg.m_phi
    assert np.allclose(np.diff(az), pitch, atol=1e-12)


def test_lattice_validation():
    with pytest.raises(ValueError):
        LatticeConfig(m_phi=0)
    with pytest.raises(ValueError):
        LatticeConfig(fov_h=0.0)
    with pytest.raises(ValueError):
        LatticeConfig(r=-1.0)
    with pytest.raises(ValueError):
        LatticeConfig(d_phi=1e-6)  # below the half-pitch: cells cannot overlap


# random lattices: grid counts 1..7, fields of view in degrees
LATTICES = st.builds(
    lambda m_phi, m_theta, fov_h, fov_v: LatticeConfig(
        m_phi=m_phi, m_theta=m_theta, fov_h=np.deg2rad(fov_h),
        fov_v=np.deg2rad(fov_v)),
    st.integers(1, 7), st.integers(1, 7), st.floats(20.0, 120.0),
    st.floats(15.0, 90.0))


@settings(max_examples=100, deadline=None)
@given(cfg=LATTICES)
def test_build_library_layout(cfg):
    thetas, phis = build_library(cfg)
    assert thetas.shape == phis.shape == (cfg.n_cells,)
    assert not thetas.flags.writeable and not phis.flags.writeable
    assert build_library(cfg)[0] is thetas  # built once per lattice
    for i in range(cfg.m_phi):
        for j in range(cfg.m_theta):
            k = i * cfg.m_theta + j  # flat order: azimuth-major
            assert phis[k] == cfg.azimuths()[i]
            assert thetas[k] == cfg.polars()[j]


def _decode(raw, cfg, alpha, v_max=8.0, a_max=6.0):
    return decode_raw_batch(raw, cfg, alpha, v_max, a_max)


@settings(max_examples=60, deadline=None)
@given(raw=arrays(float, (15, 9), elements=st.floats(-8.0, 8.0)))
def test_decode_offsets_bounded(raw):
    cfg = LatticeConfig()
    p = _decode(raw, cfg, 1.0)[:, :, 0]
    r = np.linalg.norm(p, axis=1)
    assert np.all((r > 0.0) & (r < 2.0 * cfg.r))
    th = np.arcsin(p[:, 2] / r)
    ph = np.arctan2(p[:, 1], p[:, 0])
    thetas, phis = build_library(cfg)
    assert np.all(np.abs(th - thetas) <= cfg.d_theta + 1e-9)
    assert np.all(np.abs(ph - phis) <= cfg.d_phi + 1e-9)


@settings(max_examples=60, deadline=None)
@given(raw=arrays(float, (15, 9), elements=st.floats(-8.0, 8.0)),
       alpha=st.floats(0.3, 3.0))
def test_decode_derivatives_bounds_and_scaling(raw, alpha):
    cfg = LatticeConfig()
    v_max, a_max = 8.0, 6.0
    d_P = _decode(raw, cfg, alpha, v_max, a_max)
    assert np.all(np.abs(d_P[:, :, 1]) < alpha * v_max)
    assert np.all(np.abs(d_P[:, :, 2]) < alpha ** 2 * a_max)
    assert np.allclose(d_P[:, :, 1], np.tanh(raw[:, 3:6]) * alpha * v_max)
    with pytest.raises(ValueError):
        _decode(raw, cfg, 0.0, v_max, a_max)


def test_horizon_formula():
    cfg = LatticeConfig()
    assert np.isclose(horizon(cfg, 1.0, 8.0), 2 * cfg.r / 8.0)
    assert np.isclose(horizon(cfg, 2.0, 4.0), 2 * cfg.r / 8.0)
    with pytest.raises(ValueError):
        horizon(cfg, -1.0, 8.0)
