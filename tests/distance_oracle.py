"""The distances of the bisector check and the distance law, the long way.

The package reads them through the transvections (geometry.grid_distances
and geometry._law_distances): d(f(t, y), z) is the distance from exp(Y) o
to exp(-tX) z, and the distance law's transvected S points are its nodes
f(t, y).  This oracle forms and charts every grid node f(t, y) instead,
and every transvected S point exp(tX) exp(Y) o from its representative, in
the stages the package used before: two for the bisector, three for the
distance law.
"""

from __future__ import annotations

import numpy as np

from transvector.geometry import (_b_norm, _chart_points, _charts, _grid_point,
                                  _left_s, _raise_first_failure, _round_trip, expm)


def immersion_distances(spec, t, y, g):
    """(d(o, z), d(f(t, y), z)) for the points z of the stack of group
    elements g (..., N, N) and the nodes of the stacks t (...) and
    y (..., dim s), the stack of nodes broadcast against the stack of z.
    One cartan_project call charts g and the nodes, one their
    representatives and every g_f^-1 g_z."""
    t, y = _grid_point(spec, t, y)
    a = spec.algebra
    (z, q), (z_back, q_back), (between,) = _chart_points(
        a, _charts(a, [g, spec.group_element(t, y)]),
        lambda z, q: [np.linalg.solve(q.representative, z.representative)])
    _raise_first_failure([_round_trip(z, z_back)])
    _raise_first_failure([_round_trip(q, q_back), _left_s(spec, t, q)])
    return _b_norm(a, z_back), _b_norm(a, between)


def grid_distances(spec, t, y, g):
    """immersion_distances on the grid of the t axis (T,) and the Y rows
    (n, dim s), in the layout of geometry.grid_distances."""
    return immersion_distances(spec, t[:, None, None], y[:, None, :], g)


def law_distances(spec, ts, ys):
    """geometry._law_distances in three stages: (1) the orbit exp(tX), the
    S points exp(Y) o and the points q = f(t, y), t != 0; (2) their
    representatives, every g_q^-1 g_S and the transvected S points
    exp(tX) g_S; (3) the representatives of the transvected points."""
    a = spec.algebra
    off = ts != 0.0
    orbit = expm(ts[:, None, None] * spec._x_matrix)
    points, backs, (between, moved) = _chart_points(a, _charts(a, [
        orbit, spec.group_element(0.0, ys),
        spec.group_element(ts[off, None, None], ys[:, None, :])]),
        lambda _, s, q: [np.linalg.solve(q.representative, s.representative),
                         orbit[:, None] @ s.representative])
    for pt, back in zip(points, backs):
        _raise_first_failure([_round_trip(pt, back)])
    (moved,), (moved_back,), _ = _chart_points(a, [moved])
    _raise_first_failure([_round_trip(moved, moved_back)])
    return _b_norm(a, backs[0]), _b_norm(a, between), _b_norm(a, moved_back)
