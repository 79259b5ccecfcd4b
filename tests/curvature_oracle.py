"""Finite-difference oracle of the mean curvature, for the tests.

The package evaluates H in closed form (geometry.mean_curvature_estimate).
This oracle estimates it the long way, in the global normal-coordinate
chart: central differences of the chart of f(t, Y) = exp(tX) exp(Y) o give
its first and second derivatives, central differences of metric_matrix give
the Christoffel symbols, and the covariant Hessian is traced against the
induced metric and projected off the tangent span.  Its error is O(h^2).
"""

from __future__ import annotations

import numpy as np

from transvector import geometry


def series_stretch(a, c, terms=40):
    """S(P) = sinh(ad_P)/ad_P on p at the points c (..., dim_p), as the
    fixed-term Taylor series sum_k m^k / (2k + 1)! over k < terms, m = ad_P^2
    on p; G = S^T B S is the pullback metric."""
    pbm, pinv, _ = geometry._p_geometry(a)
    ad = a.ad_stack(np.reshape(c @ pbm.T, (-1, pbm.shape[0])))
    ad = ad.swapaxes(-1, -2).reshape(np.shape(c)[:-1] + ad.shape[1:])
    m = pinv @ ad @ ad @ pbm
    s = term = np.broadcast_to(np.eye(np.shape(c)[-1]), m.shape)
    for k in range(1, terms):
        term = term @ m / ((2 * k) * (2 * k + 1))
        s = s + term
    return s


def _stencil(fn, x0, h, corners=True):
    """Central differences of a stack-aware fn at each row of x0 (n, m), from
    one call of fn on the stencil points of every row: x0, x0 +- h e_i and,
    with corners, x0 + h(+-e_i +- e_j) for i < j.  Returns (f(x0), first,
    second), the node axis in front; second is None without corners."""
    n, m = x0.shape
    e = h * np.eye(m)
    iu = np.triu_indices(m, 1 if corners else m)
    offsets = np.array([np.zeros(m)] + [d for i in range(m) for d in (e[i], -e[i])]
                       + [d for i, j in zip(*iu)
                          for d in (e[i] + e[j], e[i] - e[j], -e[i] + e[j], -e[i] - e[j])])
    vals = fn(x0[:, None, :] + offsets)
    f0, plus, minus = vals[:, 0], vals[:, 1:2 * m + 1:2], vals[:, 2:2 * m + 1:2]
    first = (plus - minus) / (2.0 * h)
    if not corners:
        return f0, first, None
    second = np.empty((n, m, m) + f0.shape[1:])
    second[:, np.arange(m), np.arange(m)] = (plus - 2.0 * f0[:, None] + minus) / (h * h)
    quad = vals[:, 2 * m + 1:].reshape((n, len(iu[0]), 4) + f0.shape[1:])
    mixed = (quad[:, :, 0] - quad[:, :, 1] - quad[:, :, 2] + quad[:, :, 3]) / (4.0 * h * h)
    second[:, iu[0], iu[1]] = second[:, iu[1], iu[0]] = mixed
    return f0, first, second


def oracle_mean_curvature(spec, t, y, h):
    """Finite-difference mean curvature vectors at the nodes t (n,) and
    y (n, dim s), step h, mapped to the base point o the way
    mean_curvature_estimate reports them: a vector w at the chart point P,
    where f(t, y) = exp(P) k, becomes v = Ad(k^-1) S(P) w on p-coordinates."""
    a = spec.algebra
    c0, first, second = _stencil(
        lambda xi: geometry.cartan_project(a, spec.group_element(xi[..., 0], xi[..., 1:])),
        np.concatenate([t[:, None], y], axis=1), h)
    m = first.shape[1]
    g_amb, dg, _ = _stencil(lambda p: geometry.metric_matrix(a, p), c0, h, corners=False)
    # Gamma_{lij} = (dG_{lj}/dx_i + dG_{li}/dx_j - dG_{ij}/dx_l) / 2, raised by G^-1
    low = 0.5 * (dg.transpose(0, 2, 1, 3) + dg.transpose(0, 2, 3, 1) - dg)
    gamma = np.einsum("nkl,nlij->nkij", np.linalg.inv(g_amb), low)
    ginv = np.linalg.inv(first @ g_amb @ first.swapaxes(-1, -2))
    hess = second + np.einsum("nkab,nia,njb->nijk", gamma, first, first)
    trace = np.einsum("nij,nijk->nk", ginv, hess)
    beta = np.einsum("nij,nj->ni", ginv, np.einsum("nij,nj->ni", first @ g_amb, trace))
    w = (trace - np.einsum("nji,nj->ni", first, beta)) / m

    p_im = geometry._p_images(a)[0]
    k = np.linalg.solve(geometry.expm(np.einsum("nj,jkl->nkl", c0, p_im)),
                        spec.group_element(t, y))
    sw = (series_stretch(a, c0) @ w[:, :, None])[:, :, 0]
    moved = np.linalg.solve(k, np.einsum("nj,jkl->nkl", sw, p_im) @ k)
    return geometry._in_p(a, moved)[0]
