"""Point clouds, forest generation, the truncated distance field, raycasts."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from primtrack.environment import (EsdfGrid, ForestSpec, PointCloud,
                                   build_esdf, generate_forest, load_cloud,
                                   load_esdf, raycast, save_cloud, save_esdf,
                                   trunk_positions)


def _brute_force(points, origin, dims, res, d_trunc=4.0):
    ii, jj, kk = np.meshgrid(*(np.arange(n) for n in dims), indexing="ij")
    centers = np.asarray(origin) + (np.stack([ii, jj, kk], axis=-1) + 0.5) * res
    d = np.linalg.norm(centers.reshape(-1, 3)[:, None, :]
                       - points[None], axis=-1).min(axis=1)
    return np.minimum(d, d_trunc).reshape(dims)


# -- point clouds -------------------------------------------------------------

def test_point_cloud_validation():
    with pytest.raises(ValueError):
        PointCloud(np.zeros((4, 2)))
    with pytest.raises(ValueError):
        PointCloud(np.array([[0.0, 0.0, np.nan]]))
    assert len(PointCloud(np.zeros((0, 3)))) == 0


# -- forests -------------------------------------------------------------------

def test_forest_deterministic_per_seed():
    spec = ForestSpec(seed=5)
    a = generate_forest(spec, 0.25)
    b = generate_forest(spec, 0.25)
    assert np.array_equal(a.points, b.points)
    c = generate_forest(ForestSpec(seed=6), 0.25)
    assert a.points.shape != c.points.shape or not np.array_equal(a.points,
                                                                  c.points)


def test_forest_clear_points_respected():
    spec = ForestSpec(intensity=0.5, area=(20.0, 20.0), seed=1)
    clear = [(5.0, 0.0), (15.0, 2.0)]
    xy = trunk_positions(spec, clear)
    for cp in clear:
        assert np.all(np.linalg.norm(xy - np.asarray(cp), axis=1)
                      > spec.spawn_clear_radius)


def test_forest_min_spacing():
    spec = ForestSpec(intensity=0.5, area=(20.0, 20.0), seed=2,
                      min_spacing=2.0)
    xy = trunk_positions(spec)
    d = np.linalg.norm(xy[:, None] - xy[None], axis=-1)
    d[np.diag_indices(len(xy))] = np.inf
    assert np.all(d >= 2.0)


def test_forest_poisson_count_in_interval():
    # intensity * area = 400 expected trunks; 5 sigma ~ +-100
    spec = ForestSpec(intensity=1.0, area=(20.0, 20.0), seed=3)
    n = len(trunk_positions(spec))
    assert 300 <= n <= 500


def test_forest_trunk_surface_sampling():
    spec = ForestSpec(intensity=1.0 / 50.0, area=(10.0, 10.0), seed=4)
    cloud = generate_forest(spec, 0.25)
    xy = trunk_positions(spec)
    assert len(xy) > 0 and len(cloud) > 0
    # every point sits on some trunk's lateral surface within its height
    d = np.linalg.norm(cloud.points[:, None, :2] - xy[None], axis=-1)
    assert np.allclose(d.min(axis=1), spec.trunk_radius, atol=1e-9)
    assert np.all((cloud.points[:, 2] >= 0)
                  & (cloud.points[:, 2] <= spec.trunk_height))


def test_forest_validation():
    with pytest.raises(ValueError):
        ForestSpec(intensity=0.0)
    with pytest.raises(ValueError):
        ForestSpec(area=(0.0, 10.0))


# -- distance field -------------------------------------------------------------

def test_esdf_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(5):
        pts = rng.uniform(-1, 4, size=(rng.integers(2, 60), 3))
        dims = (12, 10, 8)
        grid = build_esdf(PointCloud(pts), (-1.5, -1.5, -1.5), dims, 0.4)
        assert np.array_equal(grid.distance,
                              _brute_force(pts, (-1.5, -1.5, -1.5), dims, 0.4))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000),
       res=st.sampled_from([0.2, 0.25, 0.3, 0.4]),
       dims=st.tuples(st.integers(2, 20), st.integers(2, 20),
                      st.integers(2, 12)),
       shift=st.tuples(*(st.floats(-1.0, 0.0),) * 3))
def test_esdf_forest_matches_brute_force(seed, res, dims, shift):
    # forest clouds are regular (rings on a z lattice), so nearest-point
    # ties are common; the field must still equal the brute force exactly
    cloud = generate_forest(ForestSpec(area=(4.0, 4.0), intensity=0.25,
                                       trunk_height=2.0, seed=seed), res)
    if len(cloud) == 0:
        return
    origin = np.array([0.0, -2.0, 0.0]) + np.asarray(shift)
    grid = build_esdf(cloud, origin, dims, res)
    assert np.array_equal(grid.distance,
                          _brute_force(cloud.points, origin, dims, res))


def test_esdf_empty_cloud_is_uniform_truncation():
    grid = build_esdf(PointCloud(np.zeros((0, 3))), (0, 0, 0), (4, 4, 4), 0.5)
    assert np.all(grid.distance == grid.d_trunc)


def test_esdf_truncation_cap():
    # the grid spans 20 m, so distances from the one point reach past 4 m
    grid = build_esdf(PointCloud(np.array([[0.0, 0.0, 0.0]])),
                      (0, 0, 0), (40, 4, 4), 0.5)
    assert grid.distance.max() == grid.d_trunc == 4.0


def test_esdf_validation():
    with pytest.raises(ValueError):
        build_esdf(PointCloud(np.zeros((1, 3))), (0, 0, 0), (1, 4, 4), 0.5)
    with pytest.raises(ValueError):
        build_esdf(PointCloud(np.zeros((1, 3))), (0, 0, 0), (4, 4, 4), 0.0)


def _random_grid(rng, dims=(14, 12, 10), res=0.3):
    pts = rng.uniform(0.0, 3.0, size=(25, 3))
    return build_esdf(PointCloud(pts), (-0.3, -0.3, -0.3), dims, res)


def _voxel_center(grid, idx):
    return grid.origin + (np.asarray(idx, float) + 0.5) * grid.resolution


def test_query_value_matches_voxel_centers():
    rng = np.random.default_rng(1)
    grid = _random_grid(rng)
    for idx in [(0, 0, 0), (3, 5, 2), (13, 11, 9)]:
        val, _ = grid.query(_voxel_center(grid, idx))
        assert np.isclose(val, grid.distance[idx], atol=1e-12)


def test_query_gradient_matches_finite_differences_in_cell():
    rng = np.random.default_rng(2)
    grid = _random_grid(rng)
    low, high = grid.bounds()
    h = 0.01 * grid.resolution
    checked = 0
    while checked < 100:
        p = rng.uniform(low + 0.1, high - 0.1)
        u = (p - grid.origin) / grid.resolution - 0.5
        frac = u - np.floor(u)
        if np.any(frac < 0.2) or np.any(frac > 0.8):
            continue  # stay inside one cell so the interpolant is smooth
        _, g = grid.query(p)
        fd = np.zeros(3)
        for ax in range(3):
            e = np.zeros(3)
            e[ax] = h
            fd[ax] = (grid.query(p + e, with_grad=False)[0]
                      - grid.query(p - e, with_grad=False)[0]) / (2 * h)
        assert np.allclose(g, fd, rtol=1e-6, atol=1e-9)
        checked += 1


def test_query_face_gradient_is_slope_average():
    # on a shared cell face the reported slope is the mean of both sides
    dist = np.zeros((4, 3, 3))
    dist[0], dist[1], dist[2], dist[3] = 0.0, 1.0, 3.0, 6.0
    grid = EsdfGrid(np.zeros(3), 1.0, dist, 4.0)
    p = _voxel_center(grid, (1, 1, 1))  # x exactly on the face between cells
    _, g = grid.query(p)
    assert np.isclose(g[0], 0.5 * ((1 - 0) + (3 - 1)))
    assert np.isclose(g[1], 0.0) and np.isclose(g[2], 0.0)


def test_query_out_of_band_clamps_with_zero_gradient():
    rng = np.random.default_rng(3)
    grid = _random_grid(rng)
    low, high = grid.bounds()
    p = np.array([low[0] - 2.0, (low[1] + high[1]) / 2, (low[2] + high[2]) / 2])
    val, g = grid.query(p)
    clamped = p.copy()
    clamped[0] = low[0]
    ref, _ = grid.query(clamped)
    assert np.isclose(val, ref, atol=1e-12)
    assert g[0] == 0.0  # clamped axis carries no gradient


def test_query_batched_shapes():
    rng = np.random.default_rng(4)
    grid = _random_grid(rng)
    pts = rng.uniform(0.0, 2.0, size=(6, 7, 3))
    val, g = grid.query(pts)
    assert val.shape == (6, 7) and g.shape == (6, 7, 3)
    val2, g2 = grid.query(pts.reshape(-1, 3))
    assert np.allclose(val.ravel(), val2) and np.allclose(g.reshape(-1, 3), g2)


# -- the query against the reference implementation ----------------------------

def _oracle_query(grid, p, with_grad=True):
    """EsdfGrid.query as it was before the per-call overhead was cut, kept
    as the reference: the same field, cells and arithmetic, with the value
    of a gradient query read from the lower cell on a face."""
    dims = np.array(grid.dims)
    flat = grid.distance.ravel()
    strides = np.array([dims[1] * dims[2], dims[2], 1])
    ny, nz = dims[1], dims[2]
    corner_off = np.array([0, 1, nz, nz + 1, ny * nz, ny * nz + 1,
                           ny * nz + nz, ny * nz + nz + 1])

    def gather(i0):
        return flat[(i0 @ strides)[:, None] + corner_off]

    def cell_eval(c, f):
        fx, fy, fz = f[:, 0], f[:, 1], f[:, 2]
        gx, gy, gz = 1.0 - fx, 1.0 - fy, 1.0 - fz
        a = c[:, ::2] * gz[:, None] + c[:, 1::2] * fz[:, None]
        v0 = a[:, 0] * gy + a[:, 1] * fy
        v1 = a[:, 2] * gy + a[:, 3] * fy
        val = v0 * gx + v1 * fx
        grad = np.empty_like(f)
        grad[:, 0] = v1 - v0
        grad[:, 1] = (a[:, 1] - a[:, 0]) * gx + (a[:, 3] - a[:, 2]) * fx
        dz0 = (c[:, 1] - c[:, 0]) * gy + (c[:, 3] - c[:, 2]) * fy
        dz1 = (c[:, 5] - c[:, 4]) * gy + (c[:, 7] - c[:, 6]) * fy
        grad[:, 2] = dz0 * gx + dz1 * fx
        return val, grad

    p = np.asarray(p, float)
    shape = p.shape[:-1]
    P = p.reshape(-1, 3)
    hi = dims.astype(float) - 1.0
    u_raw = (P - grid.origin) / grid.resolution - 0.5
    clamped = (u_raw < -1e-12) | (u_raw > hi + 1e-12)
    u = np.clip(u_raw, 0.0, hi)
    hi_cell = dims - 2
    if not with_grad:
        i0 = np.clip(np.floor(u).astype(np.intp), 0, hi_cell)
        val, _ = cell_eval(gather(i0), u - i0)
        return val.reshape(shape), None
    h = 1e-3
    im = np.clip(np.floor(u - h).astype(np.intp), 0, hi_cell)
    ip = np.clip(np.floor(u + h).astype(np.intp), 0, hi_cell)
    val, grad = cell_eval(gather(im), u - im)
    mixed = np.any(im != ip, axis=1)
    if mixed.any():
        _, gp = cell_eval(gather(ip[mixed]), u[mixed] - ip[mixed])
        grad[mixed] = 0.5 * (grad[mixed] + gp)
    grad /= grid.resolution
    grad[clamped] = 0.0
    return val.reshape(shape), grad.reshape(p.shape)


_QUERY_GRID = build_esdf(
    generate_forest(ForestSpec(area=(4.0, 4.0), intensity=0.5,
                               trunk_height=2.0, seed=7), 0.25),
    (-0.6, -2.6, -0.6), (22, 22, 12), 0.25)

# one lattice coordinate: an integer (a voxel centre, where cells share a
# face) plus an offset on the face, just off it, or anywhere in the cell;
# the integers reach two voxels past the field on each side (out of band)
_OFFSETS = st.one_of(
    st.sampled_from([0.0, 1e-13, -1e-13, 1e-9, -1e-9, 5e-4, -5e-4, 9.99e-4,
                     -9.99e-4, 1e-3, -1e-3, 1.001e-3, -1.001e-3, 0.5]),
    st.floats(-1.5e-3, 1.5e-3), st.floats(0.0, 1.0))


@st.composite
def _query_points(draw):
    n = draw(st.integers(1, 24))
    u = np.array([[draw(st.integers(-2, dim + 1)) + draw(_OFFSETS)
                   for dim in _QUERY_GRID.dims] for _ in range(n)])
    return _QUERY_GRID.origin + (u + 0.5) * _QUERY_GRID.resolution


@settings(max_examples=200, deadline=None)
@given(p=_query_points())
def test_query_value_does_not_depend_on_gradient(p):
    val, _ = _QUERY_GRID.query(p, True)
    val_free, grad_free = _QUERY_GRID.query(p, False)
    assert grad_free is None
    assert np.array_equal(val, val_free)


@settings(max_examples=200, deadline=None)
@given(p=_query_points())
def test_query_matches_reference(p):
    grid = _QUERY_GRID
    val, grad = grid.query(p, True)
    val_free, _ = grid.query(p, False)
    ref_free, _ = _oracle_query(grid, p, False)
    ref_val, ref_grad = _oracle_query(grid, p, True)
    assert np.array_equal(val_free, ref_free)
    assert np.array_equal(grad, ref_grad)
    # the reference reads a gradient query's value from the lower cell when
    # a face is within 1e-3 lattice units; away from faces both agree
    u = (p - grid.origin) / grid.resolution - 0.5
    u = np.clip(u, 0.0, np.array(grid.dims) - 1.0)
    far = np.all(np.abs(u - np.round(u)) > 1.01e-3, axis=1)
    assert np.array_equal(val[far], ref_val[far])
    # near a face the two values differ only by the lower cell's
    # extrapolation over at most 1e-3 lattice units
    assert np.allclose(val, ref_val, rtol=0.0, atol=1e-2 * grid.resolution)


def test_raycast_blocked_and_free():
    pts = np.array([[2.0, 0.0, z] for z in np.arange(0.0, 2.01, 0.1)])
    grid = build_esdf(PointCloud(pts), (-1, -2, -1), (20, 16, 12), 0.25)
    assert not raycast(grid, (0.0, 0.0, 1.0), (4.0, 0.0, 1.0), 0.3)
    assert raycast(grid, (0.0, 1.5, 1.0), (4.0, 1.5, 1.0), 0.3)


# -- persistence ---------------------------------------------------------------

def test_cloud_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    cloud = PointCloud(rng.normal(size=(30, 3)))
    save_cloud(tmp_path / "c.txt", cloud)
    back = load_cloud(tmp_path / "c.txt")
    assert np.allclose(back.points, cloud.points, atol=1e-6)
    save_cloud(tmp_path / "e.txt", PointCloud(np.zeros((0, 3))))
    assert len(load_cloud(tmp_path / "e.txt")) == 0


def test_esdf_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    grid = _random_grid(rng)
    save_esdf(tmp_path / "g.bin", grid)
    back = load_esdf(tmp_path / "g.bin")
    assert np.array_equal(back.origin, grid.origin)
    assert back.dims == grid.dims
    assert back.resolution == grid.resolution and back.d_trunc == grid.d_trunc
    assert np.allclose(back.distance, grid.distance, atol=1e-6)


def test_esdf_load_rejects_bad_magic(tmp_path):
    (tmp_path / "bad.bin").write_bytes(b"NOTESDF0" + b"\x00" * 64)
    with pytest.raises(ValueError):
        load_esdf(tmp_path / "bad.bin")
