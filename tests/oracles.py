"""Independent oracles used by the tests.

These deliberately avoid the code paths they check: the degree oracles
work directly on the 4-component lift values, the linking oracle is the
Gauss double sum over polyline segment pairs, and the plaquette
references evaluate the spherical triangle formula on site-major values
with np.cross and last-axis sums, one plaquette loop per consumer.

Orientation dictionary, frozen: with the package conventions (x-fastest
site ordering, right-handed axes, quaternion basis i, j, k) the charge
reported by the library equals MINUS the degree computed by the
det[u, d1 u, d2 u, d3 u] volume formula below, and equals the raw
ray-crossing count of signed_preimage_count with its target-last frame
ordering.  All routes in the library share one convention; the oracles
carry the conversion.
"""

import numpy as np

from hopfion.lattice import SLOTS2, LatticeField, centered_diff

CHARGE_FROM_VOLUME = -1.0

# Freudenthal subdivision: six tetrahedra per cube, one per axis permutation
_PERMS = (((0, 1, 2), 1), ((0, 2, 1), -1), ((1, 0, 2), -1),
          ((1, 2, 0), 1), ((2, 0, 1), 1), ((2, 1, 0), -1))


def volume_degree(u):
    """Degree of a lift via (1/2 pi^2) int det[u, du] with centered differences."""
    h = u.grid.h
    v = u.values
    cols = [v] + [centered_diff(v, mu, h) for mu in range(3)]
    M = np.stack(cols, axis=-1)
    return float(np.sum(np.linalg.det(M)) * h ** 3 / (2.0 * np.pi ** 2))


def signed_preimage_count(u, target=None):
    """Exact integer degree by counting ray hits of a simplexwise-linear map.

    Each cube splits into six tetrahedra; on each the 4-component field is
    affine and the ray through the regular value crosses its image simplex
    at most once.  The signed count over all tetrahedra is the degree of
    the radially projected PL map.
    """
    if target is None:
        target = np.array([0.31, 0.52, -0.41, 0.68])
    target = np.asarray(target, dtype=float)
    target /= np.linalg.norm(target)
    v = u.values
    total = 0
    for perm, parity in _PERMS:
        verts = [v]
        cur = v
        for axis in perm:
            cur = np.roll(cur, -1, axis=axis)
            verts.append(cur)
        # solve sum_i lam_i verts_i - t * target = 0, sum lam = 1
        A = np.zeros(v.shape[:3] + (5, 5))
        for i, vv in enumerate(verts):
            A[..., :4, i] = vv
        A[..., :4, 4] = -target
        A[..., 4, :4] = 1.0
        b = np.zeros(5)
        b[4] = 1.0
        ok = np.abs(np.linalg.det(A)) > 1e-14
        sol = np.full(v.shape[:3] + (5,), -1.0)
        sol[ok] = np.linalg.solve(A[ok], b)
        hit = ok & np.all(sol[..., :4] >= 0.0, axis=-1) & (sol[..., 4] > 0.0)
        if not np.any(hit):
            continue
        frame = np.stack([verts[i + 1] - verts[0] for i in range(3)] + [np.broadcast_to(target, v.shape)], axis=-1)
        signs = np.sign(np.linalg.det(frame[hit]))
        total += parity * int(np.sum(signs))
    return int(round(total))


def gauss_integral_linking(c1, c2):
    """Gauss double sum over segment midpoints of two closed polylines."""
    r1 = 0.5 * (c1[1:] + c1[:-1])
    d1 = c1[1:] - c1[:-1]
    r2 = 0.5 * (c2[1:] + c2[:-1])
    d2 = c2[1:] - c2[:-1]
    total = 0.0
    for i in range(len(r1)):
        diff = r1[i][None, :] - r2
        cross = np.cross(np.broadcast_to(d1[i], d2.shape), d2)
        dist3 = np.sum(diff * diff, axis=-1) ** 1.5
        total += np.sum(np.sum(cross * diff, axis=-1) / dist3)
    return total / (4.0 * np.pi)


def qmul(p, q):
    """The Hamilton product as algebra.qmul computed it with np.sum and np.cross."""
    p, q = np.asarray(p), np.asarray(q)
    pw, pv, qw, qv = p[..., :1], p[..., 1:], q[..., :1], q[..., 1:]
    return np.concatenate([pw * qw - np.sum(pv * qv, axis=-1, keepdims=True),
                           pw * qv + qw * pv + np.cross(pv, qv)], axis=-1)


def spherical_triangle_area(a, b, c, with_grads=False):
    """Signed area of the geodesic triangle (a, b, c) on the unit 2-sphere.

    2 atan2(a.(b x c), 1 + a.b + b.c + c.a); with_grads also returns the
    Euclidean gradients with respect to the three vertices.
    """
    bxc = np.cross(b, c)
    n = np.sum(a * bxc, axis=-1, keepdims=True)
    d = (1.0 + np.sum(a * b, axis=-1) + np.sum(b * c, axis=-1)
         + np.sum(c * a, axis=-1))[..., None]
    area = 2.0 * np.arctan2(n[..., 0], d[..., 0])
    if not with_grads:
        return area
    denom = n * n + d * d
    cn = 2.0 * d / denom
    cd = -2.0 * n / denom
    ga = cn * bxc + cd * (b + c)
    gb = cn * np.cross(c, a) + cd * (a + c)
    gc = cn * np.cross(a, b) + cd * (a + b)
    return area, ga, gb, gc


def _corners(p, mu, nu):
    p10 = np.roll(p, -1, axis=mu)
    p01 = np.roll(p, -1, axis=nu)
    return p10, np.roll(p10, -1, axis=nu), p01


def descent_energy(psi, scale_dirichlet=1.0, scale_skyrme=1.0):
    """(dirichlet, skyrme) of the descent objective, site-major throughout."""
    h = psi.grid.h
    p = psi.values
    e2 = np.zeros(p.shape[:-1])
    for mu in range(3):
        delta = np.roll(p, -1, axis=mu) - p
        e2 += np.sum(delta * delta, axis=-1)
    e4 = np.zeros_like(e2)
    for mu, nu in SLOTS2:
        p10, p11, p01 = _corners(p, mu, nu)
        area = spherical_triangle_area(p, p10, p11) + spherical_triangle_area(p, p11, p01)
        e4 += area * area
    return (scale_dirichlet * float(np.sum(e2)) * h / 8.0,
            scale_skyrme * float(np.sum(e4)) / (16.0 * h))


def descent_gradient(psi, scale_dirichlet=1.0, scale_skyrme=1.0):
    """Tangent gradient of descent_energy, scattered as whole site vectors."""
    h = psi.grid.h
    p = psi.values
    grad = np.zeros_like(p)
    for mu in range(3):
        grad += (scale_dirichlet / 4.0) * h * (
            2.0 * p - np.roll(p, -1, axis=mu) - np.roll(p, 1, axis=mu))
    for mu, nu in SLOTS2:
        p10, p11, p01 = _corners(p, mu, nu)
        a1, g1a, g1b, g1c = spherical_triangle_area(p, p10, p11, with_grads=True)
        a2, g2a, g2b, g2c = spherical_triangle_area(p, p11, p01, with_grads=True)
        w = (scale_skyrme / (8.0 * h)) * (a1 + a2)[..., None]
        grad += w * (g1a + g2a)
        grad += np.roll(w * g1b, 1, axis=mu)
        grad += np.roll(np.roll(w * (g1c + g2b), 1, axis=mu), 1, axis=nu)
        grad += np.roll(w * g2c, 1, axis=nu)
    grad -= np.sum(grad * p, axis=-1, keepdims=True) * p
    return grad


def area_flux_2form(psi):
    """Signed plaquette areas over 4 pi h^2, one slot per (mu, nu)."""
    p = psi.values
    h2 = psi.grid.h ** 2
    slots = []
    for mu, nu in SLOTS2:
        p10, p11, p01 = _corners(p, mu, nu)
        area = spherical_triangle_area(p, p10, p11) + spherical_triangle_area(p, p11, p01)
        slots.append(area[..., None] / (4.0 * np.pi * h2))
    return LatticeField.from_slots(psi.grid, 2, slots)


def triple_trace_wedge(alpha, beta, gamma, trace_tensor):
    """tr(alpha ^ beta ^ gamma) as a scalar 3-form, trace via the pair tensor."""
    out = triple_trace_wedge_data(alpha.data, beta.data, gamma.data, trace_tensor)
    return LatticeField(alpha.grid, 3, out[..., None, None])


def triple_trace_wedge_data(A, B, G, T):
    """The same trace on 1-form data (..., 3, dim), any leading axes."""
    out = np.zeros(A.shape[:-2])
    perms = (((0, 1, 2), 1.0), ((1, 2, 0), 1.0), ((2, 0, 1), 1.0),
             ((0, 2, 1), -1.0), ((2, 1, 0), -1.0), ((1, 0, 2), -1.0))
    for (i, j, k), sign in perms:
        out += sign * np.einsum("abc,...a,...b,...c->...",
                                T, A[..., i, :], B[..., j, :], G[..., k, :])
    return out


def cp1_split_potential(a, phi):
    """The CP1 isotropy split of a 1-form as fields.split_potential computed it."""
    ref = phi.values[:, :, :, None, :]  # broadcast over slots
    par = np.sum(a.data * ref, axis=-1, keepdims=True) * ref
    return (LatticeField(a.grid, 1, par),
            LatticeField(a.grid, 1, a.data - par))


def cp1_isotropy_project_2form(W, psi):
    """The CP1 isotropic part of a 2-form as energy.isotropy_project_2form computed it."""
    ref = psi.values[:, :, :, None, :]
    par = np.sum(W.data * ref, axis=-1, keepdims=True) * ref
    return LatticeField(W.grid, W.degree, par)


def slotwise_ad_split(form, phi):
    """Isotropy split along a matrix-pair map through Ad of its representatives,
    one slot at a time."""
    pair = phi.pair
    g = phi.values
    ginv = np.swapaxes(g, -1, -2).conj()
    par_slots, perp_slots = [], []
    for idx in range(form.data.shape[3]):
        down = pair.ad(ginv, form.slot(idx))
        par_slots.append(pair.ad(g, pair.proj_h(down)))
        perp_slots.append(pair.ad(g, pair.proj_perp(down)))
    return (LatticeField.from_slots(form.grid, form.degree, par_slots),
            LatticeField.from_slots(form.grid, form.degree, perp_slots))
