"""Compiled hot loop for batched trajectory-cost evaluation.

Numerically mirrors the vectorized CostEngine.evaluate step for step; the
numpy implementation stays the readable reference and this module is skipped
entirely when numba is unavailable.
"""

from __future__ import annotations

import numpy as np

__all__ = ["HAVE_NUMBA", "eval_batch"]

try:
    from numba import njit
    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is an optional speedup
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]

        def wrap(f):
            return f
        return wrap


@njit(cache=True)
def _trilinear(flat, base, sxy, nz, fx, fy, fz):
    """Trilinear value in the cell whose low corner has flat index base."""
    gx = 1.0 - fx
    gy = 1.0 - fy
    gz = 1.0 - fz
    a0 = flat[base] * gz + flat[base + 1] * fz
    a1 = flat[base + nz] * gz + flat[base + nz + 1] * fz
    a2 = flat[base + sxy] * gz + flat[base + sxy + 1] * fz
    a3 = flat[base + sxy + nz] * gz + flat[base + sxy + nz + 1] * fz
    return (a0 * gy + a1 * fy) * gx + (a2 * gy + a3 * fy) * fx


@njit(cache=True)
def eval_batch(raw, anchor_th, anchor_ph, anchor_rr, d_theta, d_phi,
               d_F, B, Mt, powers, P, R, position, goal_p,
               vel_scale, acc_scale,
               lam_s, lam_c, lam_g, d_safe, falloff, cutoff, pot_dt,
               has_grid, flat, nx, ny, nz, origin, res,
               with_grad, total, J_s_out, J_c_out, J_g_out, grad_out):
    """Per-candidate weighted cost, parts, and raw-space gradient.

    Outputs are written into the preallocated total/J_*/grad_out arrays.
    Trilinear field queries follow the clamped-interpolant semantics: exact
    in-cell derivative, face slopes averaged across the shared face, zero
    gradient along clamped axes.
    """
    n = raw.shape[0]
    K = powers.shape[0]
    sxy = ny * nz
    hix = nx - 1.0
    hiy = ny - 1.0
    hiz = nz - 1.0
    h = 1e-3  # lattice units; selects the two cells sharing a face

    y = np.empty(9)
    d = np.empty((3, 6))
    dB = np.empty((3, 6))
    coeffs = np.empty((3, 6))
    grad_dP = np.empty((3, 3))
    diff = np.empty(3)

    for i in range(n):
        for q in range(9):
            y[q] = np.tanh(raw[i, q])
        th = anchor_th[i] + y[0] * d_theta
        ph = anchor_ph[i] + y[1] * d_phi
        rr = anchor_rr[i] * (1.0 + y[2])
        ct = np.cos(th)
        st = np.sin(th)
        cp = np.cos(ph)
        sp = np.sin(ph)
        pc0 = rr * ct * cp
        pc1 = rr * ct * sp
        pc2 = rr * st
        for a in range(3):
            for c in range(3):
                d[a, c] = d_F[a, c]
            d[a, 3] = R[a, 0] * pc0 + R[a, 1] * pc1 + R[a, 2] * pc2 \
                + position[a]
            d[a, 4] = (R[a, 0] * y[3] + R[a, 1] * y[4] + R[a, 2] * y[5]) \
                * vel_scale
            d[a, 5] = (R[a, 0] * y[6] + R[a, 1] * y[7] + R[a, 2] * y[8]) \
                * acc_scale
        # squared-jerk quadratic form
        J_s = 0.0
        for a in range(3):
            for c in range(6):
                s = 0.0
                for e in range(6):
                    s += d[a, e] * B[e, c]
                dB[a, c] = s
                J_s += s * d[a, c]
        # obstacle potential along the sampled path
        J_c = 0.0
        if with_grad:
            for a in range(3):
                for m in range(3):
                    grad_dP[a, m] = 2.0 * lam_s * dB[a, m + 3]
        if has_grid:
            for a in range(3):
                for c in range(6):
                    s = 0.0
                    for e in range(6):
                        s += d[a, e] * Mt[e, c]
                    coeffs[a, c] = s
            for k in range(K):
                p0 = 0.0
                p1 = 0.0
                p2 = 0.0
                for c in range(6):
                    w = powers[k, c]
                    p0 += coeffs[0, c] * w
                    p1 += coeffs[1, c] * w
                    p2 += coeffs[2, c] * w
                ux = (p0 - origin[0]) / res - 0.5
                uy = (p1 - origin[1]) / res - 0.5
                uz = (p2 - origin[2]) / res - 0.5
                oob_x = ux < -1e-12 or ux > hix + 1e-12
                oob_y = uy < -1e-12 or uy > hiy + 1e-12
                oob_z = uz < -1e-12 or uz > hiz + 1e-12
                if ux < 0.0:
                    ux = 0.0
                elif ux > hix:
                    ux = hix
                if uy < 0.0:
                    uy = 0.0
                elif uy > hiy:
                    uy = hiy
                if uz < 0.0:
                    uz = 0.0
                elif uz > hiz:
                    uz = hiz
                if with_grad:
                    imx = min(max(int(np.floor(ux - h)), 0), nx - 2)
                    imy = min(max(int(np.floor(uy - h)), 0), ny - 2)
                    imz = min(max(int(np.floor(uz - h)), 0), nz - 2)
                    ipx = min(max(int(np.floor(ux + h)), 0), nx - 2)
                    ipy = min(max(int(np.floor(uy + h)), 0), ny - 2)
                    ipz = min(max(int(np.floor(uz + h)), 0), nz - 2)
                else:
                    imx = min(max(int(np.floor(ux)), 0), nx - 2)
                    imy = min(max(int(np.floor(uy)), 0), ny - 2)
                    imz = min(max(int(np.floor(uz)), 0), nz - 2)
                    ipx = imx
                    ipy = imy
                    ipz = imz
                base = imx * sxy + imy * nz + imz
                c000 = flat[base]
                c001 = flat[base + 1]
                c010 = flat[base + nz]
                c011 = flat[base + nz + 1]
                c100 = flat[base + sxy]
                c101 = flat[base + sxy + 1]
                c110 = flat[base + sxy + nz]
                c111 = flat[base + sxy + nz + 1]
                fx = ux - imx
                fy = uy - imy
                fz = uz - imz
                gx = 1.0 - fx
                gy = 1.0 - fy
                gz = 1.0 - fz
                a0 = c000 * gz + c001 * fz
                a1 = c010 * gz + c011 * fz
                a2 = c100 * gz + c101 * fz
                a3 = c110 * gz + c111 * fz
                v0 = a0 * gy + a1 * fy
                v1 = a2 * gy + a3 * fy
                dist = v0 * gx + v1 * fx
                if imx != ipx or imy != ipy or imz != ipz:
                    # near a face the value comes from the cell holding the
                    # point, as in the gradient-free query
                    jx = min(max(int(np.floor(ux)), 0), nx - 2)
                    jy = min(max(int(np.floor(uy)), 0), ny - 2)
                    jz = min(max(int(np.floor(uz)), 0), nz - 2)
                    dist = _trilinear(flat, jx * sxy + jy * nz + jz, sxy, nz,
                                      ux - jx, uy - jy, uz - jz)
                if dist >= cutoff:
                    continue
                cpot = np.exp((d_safe - dist) / falloff)
                J_c += cpot
                if not with_grad:
                    continue
                ex = v1 - v0
                ey = (a1 - a0) * gx + (a3 - a2) * fx
                dz0 = (c001 - c000) * gy + (c011 - c010) * fy
                dz1 = (c101 - c100) * gy + (c111 - c110) * fy
                ez = dz0 * gx + dz1 * fx
                if imx != ipx or imy != ipy or imz != ipz:
                    base = ipx * sxy + ipy * nz + ipz
                    c000 = flat[base]
                    c001 = flat[base + 1]
                    c010 = flat[base + nz]
                    c011 = flat[base + nz + 1]
                    c100 = flat[base + sxy]
                    c101 = flat[base + sxy + 1]
                    c110 = flat[base + sxy + nz]
                    c111 = flat[base + sxy + nz + 1]
                    fx = ux - ipx
                    fy = uy - ipy
                    fz = uz - ipz
                    gx = 1.0 - fx
                    gy = 1.0 - fy
                    gz = 1.0 - fz
                    a0 = c000 * gz + c001 * fz
                    a1 = c010 * gz + c011 * fz
                    a2 = c100 * gz + c101 * fz
                    a3 = c110 * gz + c111 * fz
                    v0 = a0 * gy + a1 * fy
                    v1 = a2 * gy + a3 * fy
                    ex = 0.5 * (ex + (v1 - v0))
                    ey = 0.5 * (ey + (a1 - a0) * gx + (a3 - a2) * fx)
                    dz0 = (c001 - c000) * gy + (c011 - c010) * fy
                    dz1 = (c101 - c100) * gy + (c111 - c110) * fy
                    ez = 0.5 * (ez + dz0 * gx + dz1 * fx)
                if oob_x:
                    ex = 0.0
                if oob_y:
                    ey = 0.0
                if oob_z:
                    ez = 0.0
                coef = (-lam_c * pot_dt / falloff) * cpot / res
                gdx = coef * ex
                gdy = coef * ey
                gdz = coef * ez
                for m in range(3):
                    pm = P[k, m]
                    grad_dP[0, m] += gdx * pm
                    grad_dP[1, m] += gdy * pm
                    grad_dP[2, m] += gdz * pm
            J_c *= pot_dt
        J_g = 0.0
        for a in range(3):
            diff[a] = d[a, 3] - goal_p[a]
            J_g += diff[a] * diff[a]
        J_s_out[i] = J_s
        J_c_out[i] = J_c
        J_g_out[i] = J_g
        total[i] = lam_s * J_s + lam_c * J_c + lam_g * J_g
        if not with_grad:
            continue
        for a in range(3):
            grad_dP[a, 0] += 2.0 * lam_g * diff[a]
        # chain rule through the world placement, spherical decode, and tanh
        gp0 = grad_dP[0, 0] * R[0, 0] + grad_dP[1, 0] * R[1, 0] \
            + grad_dP[2, 0] * R[2, 0]
        gp1 = grad_dP[0, 0] * R[0, 1] + grad_dP[1, 0] * R[1, 1] \
            + grad_dP[2, 0] * R[2, 1]
        gp2 = grad_dP[0, 0] * R[0, 2] + grad_dP[1, 0] * R[1, 2] \
            + grad_dP[2, 0] * R[2, 2]
        g_th = rr * (ct * gp2 - st * (cp * gp0 + sp * gp1))
        g_ph = rr * ct * (cp * gp1 - sp * gp0)
        g_r = ct * (cp * gp0 + sp * gp1) + st * gp2
        grad_out[i, 0] = g_th * (1.0 - y[0] * y[0]) * d_theta
        grad_out[i, 1] = g_ph * (1.0 - y[1] * y[1]) * d_phi
        grad_out[i, 2] = g_r * (1.0 - y[2] * y[2]) * anchor_rr[i]
        for m in range(3):
            gv = grad_dP[0, 1] * R[0, m] + grad_dP[1, 1] * R[1, m] \
                + grad_dP[2, 1] * R[2, m]
            ga = grad_dP[0, 2] * R[0, m] + grad_dP[1, 2] * R[1, m] \
                + grad_dP[2, 2] * R[2, m]
            grad_out[i, 3 + m] = gv * (1.0 - y[3 + m] * y[3 + m]) * vel_scale
            grad_out[i, 6 + m] = ga * (1.0 - y[6 + m] * y[6 + m]) * acc_scale
