"""Pinhole projections, frustum checks, and grid-cell index mirroring."""

import numpy as np
from hypothesis import example, given, settings, strategies as st
from scipy.spatial.transform import Rotation

from primtrack.camera import DS, CameraModel, anchor_to_cell, cell_to_anchor
from primtrack.primitives import LatticeConfig, build_library, \
    spherical_endpoint


def _random_pose(rng):
    R = Rotation.random(random_state=rng).as_matrix()
    p = rng.normal(size=3) * 5
    return R, p


def test_project_unproject_round_trip():
    cfg = LatticeConfig()
    rng = np.random.default_rng(0)
    cam = CameraModel.for_lattice(cfg).with_pose(*_random_pose(rng))
    for _ in range(200):
        th = rng.uniform(-cfg.fov_v / 2 * 0.95, cfg.fov_v / 2 * 0.95)
        ph = rng.uniform(-cfg.fov_h / 2 * 0.95, cfg.fov_h / 2 * 0.95)
        r = rng.uniform(0.5, 12.0)
        p_c = r * np.array([np.cos(th) * np.cos(ph),
                            np.cos(th) * np.sin(ph), np.sin(th)])
        p_w = cam.camera_to_world(p_c)
        u, v, depth = cam.project_world(p_w)
        assert np.isclose(depth, p_c[0], atol=1e-9)
        assert np.allclose(cam.unproject(u, v, depth), p_w, atol=1e-9)


def test_world_camera_transform_round_trip():
    rng = np.random.default_rng(1)
    cam = CameraModel.for_lattice(LatticeConfig()).with_pose(*_random_pose(rng))
    pts = rng.normal(size=(50, 3)) * 8
    assert np.allclose(cam.camera_to_world(cam.world_to_camera(pts)), pts,
                       atol=1e-9)


def test_optical_axis_projects_to_center():
    cam = CameraModel.for_lattice(LatticeConfig())
    u, v, z = cam.project_camera(np.array([3.0, 0.0, 0.0]))
    assert np.isclose(u, cam.cx) and np.isclose(v, cam.cy) and z == 3.0
    # camera frame is x forward, y left, z up; pixels grow right/down
    u_l, v_u, _ = cam.project_camera(np.array([3.0, 0.5, 0.5]))
    assert u_l < cam.cx and v_u < cam.cy


def test_for_lattice_fov_matches_image_edges():
    cfg = LatticeConfig()
    cam = CameraModel.for_lattice(cfg)
    assert cam.width == cfg.m_phi * DS
    assert cam.height == cfg.m_theta * DS
    # the horizontal FOV edge ray lands exactly on the image border
    edge = np.array([np.cos(cfg.fov_h / 2), np.sin(cfg.fov_h / 2), 0.0])
    u, _, _ = cam.project_camera(edge)
    assert np.isclose(u, 0.0, atol=1e-9)


def test_in_frustum():
    cam = CameraModel.for_lattice(LatticeConfig())
    assert cam.in_frustum(np.array([2.0, 0.0, 0.0]))
    assert not cam.in_frustum(np.array([-2.0, 0.0, 0.0]))  # behind
    assert not cam.in_frustum(np.array([1.0, 5.0, 0.0]))  # far off-axis
    assert not cam.in_frustum(np.array([25.0, 0.0, 0.0]), max_depth=20.0)


def test_anchor_cell_mirroring_round_trip():
    cfg = LatticeConfig()
    seen = set()
    for i in range(cfg.m_phi):
        for j in range(cfg.m_theta):
            col, row = anchor_to_cell(i, j, cfg)
            assert 0 <= col < cfg.m_phi and 0 <= row < cfg.m_theta
            assert cell_to_anchor(col, row, cfg) == (i, j)
            seen.add((col, row))
    assert len(seen) == cfg.n_cells


# Grid counts 1..7; horizontal fields of view up to 80 degrees, vertical
# up to 90. Anchors are equiangular and image cells equal in pixels: a point
# at azimuth phi lands 1/cos(phi) farther from the image's horizontal
# midline than its polar angle alone gives, so from about 88 degrees wide
# with 7 rows an outer anchor projects into the neighbouring row.
@settings(max_examples=100, deadline=None)
@given(m_phi=st.integers(1, 7), m_theta=st.integers(1, 7),
       fov_h=st.floats(20.0, 80.0), fov_v=st.floats(15.0, 90.0))
@example(m_phi=5, m_theta=3, fov_h=90.0,
         fov_v=np.rad2deg(LatticeConfig().fov_v))  # the default lattice
def test_anchor_endpoints_project_into_their_cells(m_phi, m_theta, fov_h,
                                                   fov_v):
    cfg = LatticeConfig(m_phi=m_phi, m_theta=m_theta,
                        fov_h=np.deg2rad(fov_h), fov_v=np.deg2rad(fov_v))
    cam = CameraModel.for_lattice(cfg)
    thetas, phis = build_library(cfg)
    u, v, _ = cam.project_camera(spherical_endpoint(thetas, phis, cfg.r))
    col, row = cam.pixel_to_cell(u, v)
    for k in range(cfg.n_cells):
        i, j = divmod(k, cfg.m_theta)
        assert (int(col[k]), int(row[k])) == anchor_to_cell(i, j, cfg)


def test_pixel_to_cell_clipping():
    cam = CameraModel.for_lattice(LatticeConfig())
    col, row = cam.pixel_to_cell(-5.0, 1e6)
    assert col == 0 and row == cam.height // DS - 1


def test_intrinsics_matrix():
    # the projection is the intrinsics matrix applied to the optical-frame
    # point (right, down, forward)
    cam = CameraModel.for_lattice(LatticeConfig(fov_h=np.pi / 2,
                                                fov_v=np.pi / 3))
    K = np.array([[cam.fx, 0.0, cam.cx], [0.0, cam.fy, cam.cy],
                  [0.0, 0.0, 1.0]])
    p_c = np.array([4.0, -0.7, 0.3])  # forward, left, up
    uvw = K @ np.array([-p_c[1], -p_c[2], p_c[0]])
    u, v, depth = cam.project_camera(p_c)
    assert np.isclose(u, uvw[0] / uvw[2]) and np.isclose(v, uvw[1] / uvw[2])
    assert depth == p_c[0]
