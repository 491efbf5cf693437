"""Independent oracles used by the tests.

These deliberately avoid the code paths they check: the degree oracles
work directly on the 4-component lift values, the linking oracle is the
Gauss double sum over polyline segment pairs, and the plaquette
references evaluate the spherical triangle formula on site-major values
with np.cross and last-axis sums, one plaquette loop per consumer.  The
periodic solves keep their complex full-spectrum transforms.

Orientation dictionary, frozen: with the package conventions (x-fastest
site ordering, right-handed axes, quaternion basis i, j, k) the charge
reported by the library equals MINUS the degree computed by the
det[u, d1 u, d2 u, d3 u] volume formula below, and equals the raw
ray-crossing count of signed_preimage_count with its target-last frame
ordering.  All routes in the library share one convention; the oracles
carry the conversion.
"""

import numpy as np

from hopfion import lattice
from hopfion.algebra import check_unit, su2_u1
from hopfion.energy import A_MAX
from hopfion.lattice import SLOTS2, LatticeField, d, wedge

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


def qconj(q):
    """The quaternion conjugate as algebra.qconj computed it, by concatenation."""
    q = np.asarray(q)
    return np.concatenate([q[..., :1], -q[..., 1:]], axis=-1)


def qembed(v):
    """Imaginary coefficients v as full quaternions (0, v)."""
    v = np.asarray(v)
    w = np.zeros(v.shape[:-1] + (1,), dtype=v.dtype)
    return np.concatenate([w, v], axis=-1)


def qexp(v):
    """The quaternion exponential as algebra.qexp computed it."""
    v = np.asarray(v, dtype=float)
    theta = np.linalg.norm(v, axis=-1)
    s = np.sinc(theta / np.pi)
    w = np.cos(theta)[..., None]
    return np.concatenate([w, s[..., None] * v], axis=-1)


def qlog(q):
    """The principal logarithm as algebra.qlog computed it, with np.sinc (no cut check)."""
    q = np.asarray(q, dtype=float)
    w = np.clip(q[..., 0], -1.0, 1.0)
    v = q[..., 1:]
    theta = np.arctan2(np.linalg.norm(v, axis=-1), w)
    return (1.0 / np.sinc(theta / np.pi))[..., None] * v


def qrotate(g, v):
    """Ad(g) v as the chain qim(qmul(qmul(g, qembed(v)), qconj(g))) computed it.

    The product is the library's qmul, which is held to the sum-and-cross
    formula above bit for bit, so this is the chain as it ran before the
    fused kernel, temporaries included.
    """
    from hopfion.algebra import qmul as component_qmul

    return component_qmul(component_qmul(g, qembed(v)), qconj(g))[..., 1:]


def forward_diff(arr, axis, h, out=None):
    """lattice.forward_diff as it computed it, from a rolled copy."""
    out = np.subtract(np.roll(arr, -1, axis=axis), arr, out=out)
    out /= h
    return out


def centered_diff(arr, axis, h):
    """lattice.centered_diff as it computed it, from two rolled copies."""
    return (np.roll(arr, -1, axis=axis) - np.roll(arr, 1, axis=axis)) / (2.0 * h)


def d_slot(f, slot):
    """Slot SLOTS2[slot] of d of a 1-form from the rolled forward differences."""
    mu, nu = SLOTS2[slot]
    return forward_diff(f.slot(nu), mu, f.grid.h) - forward_diff(f.slot(mu), nu, f.grid.h)


def qrotate_form(g, v):
    """algebra.qrotate_form's matrix product, its nine entries built over the
    whole grid at once from g's homogeneous entries, in the kernel's order."""
    w, x, y, z = (g[..., k] for k in range(4))
    ww, xx, yy, zz = w * w, x * x, y * y, z * z
    matrix = ((((ww + xx) - yy) - zz, 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)),
              (2.0 * (x * y + w * z), ((ww - xx) + yy) - zz, 2.0 * (y * z - w * x)),
              (2.0 * (x * z - w * y), 2.0 * (y * z + w * x), ((ww - xx) - yy) + zz))
    out = np.empty_like(v)
    for slot in range(v.shape[3]):
        for k, (m0, m1, m2) in enumerate(matrix):
            out[..., slot, k] = ((m0 * v[..., slot, 0] + m1 * v[..., slot, 1])
                                 + m2 * v[..., slot, 2])
    return out


def maurer_cartan_form(u):
    """u^-1 du as fields.maurer_cartan_form computed it: each slot the log of the
    whole grid's links, u^-1 times u rolled along the axis, over h."""
    slots = [u.pair.log(u.pair.mul(u.pair.inverse(u.values), np.roll(u.values, -1, axis=mu)))
             / u.grid.h for mu in range(3)]
    return LatticeField.from_slots(u.grid, 1, slots)


def cross(a, b):
    """The last-axis cross product: numpy's own."""
    return np.cross(a, b)


def dot(a, b):
    """The last-axis dot product as a numpy sum over the product array."""
    return np.sum(np.asarray(a) * b, axis=-1)


def comm_wedge(omega, pair):
    """(w ^ w) as energy.comm_wedge computed it: the two-product wedge."""
    if pair.group_kind == "quaternion":
        return wedge(omega, omega, lattice.cross)
    return wedge(omega, omega, lambda a, b: 0.5 * pair.bracket(a, b))


# library kernels that have an oracle above under the same name
KERNELS = {"algebra": ("qconj", "qexp", "qlog", "qrotate"),
           "lattice": ("cross", "dot"),
           "energy": ("comm_wedge",)}


def patch_kernels(monkeypatch):
    """Rebind each kernel of KERNELS to its oracle at every hopfion module
    attribute that holds it; returns the number rebound."""
    import importlib
    import pkgutil

    import hopfion

    swap = {}
    for module, names in KERNELS.items():
        mod = importlib.import_module(f"hopfion.{module}")
        swap.update({getattr(mod, name): globals()[name] for name in names})
    count = 0
    for info in pkgutil.iter_modules(hopfion.__path__):
        mod = importlib.import_module(f"hopfion.{info.name}")
        for attr, obj in list(vars(mod).items()):
            if callable(obj) and obj in swap:
                monkeypatch.setattr(mod, attr, swap[obj])
                count += 1
    return count


def pullback_coisotropy_cp1(psi):
    """psi^* omega-perp on CP1 as fields.pullback_coisotropy computed it with np.cross."""
    slots = [0.5 * np.cross(psi.values, centered_diff(psi.values, mu, psi.grid.h))
             for mu in range(3)]
    return LatticeField.from_slots(psi.grid, 1, slots)


def projector_derivative_wedge(phi, form):
    """d Phi ^ form as gauge.projector_derivative_wedge computed it with np.sum."""
    v = [centered_diff(phi.values, mu, phi.grid.h) for mu in range(3)]
    p = phi.values

    def dphi(mu, xi):
        return (np.sum(xi * v[mu], axis=-1, keepdims=True) * p
                + np.sum(xi * p, axis=-1, keepdims=True) * v[mu])

    if form.degree == 1:
        slots = [dphi(mu, form.slot(nu)) - dphi(nu, form.slot(mu)) for mu, nu in SLOTS2]
        return LatticeField.from_slots(form.grid, 2, slots)
    out = dphi(0, form.slot(2)) - dphi(1, form.slot(1)) + dphi(2, form.slot(0))
    return LatticeField.from_slots(form.grid, 3, [out])


def coset_curvature(b):
    """F(b) on CP1 as gauge.coset_curvature computed it when it rebuilt
    phi^*omega and (phi^*omega ^ phi^*omega)_par itself, with LatticeField
    arithmetic and the np.sum isotropy formula."""
    from hopfion import fields as fl
    from hopfion.energy import comm_wedge

    phi, a = b.phi, b.a
    if phi is None:
        raise ValueError("coset curvature needs the reference map")
    pair = phi.pair
    omega = fl.pullback_coisotropy(phi)
    par_oo = cp1_isotropy_project_2form(comm_wedge(omega, pair), phi)
    return d(a) + comm_wedge(a, pair) - wedge(a, omega, pair.bracket) - par_oo


def covariant_potential(a):
    """D_phi a as energy.covariant_potential formed it: both parts of the split,
    then the perp part plus phi^*omega in a new form."""
    from hopfion import fields as fl

    _, aperp = a.split()
    if a.phi is None:
        return aperp
    return aperp + fl.pullback_coisotropy(a.phi)


def gauge_transform_potential(b, stab):
    """b^w as gauge.gauge_transform_potential computed it when it rebuilt
    phi^*omega itself, with LatticeField arithmetic."""
    from hopfion import fields as fl
    from hopfion.gauge import _require_isotropic, ad_inverse_apply, stabilizer_log_derivative

    phi = b.phi
    if stab.phi is not phi and (phi is None or stab.phi.grid != phi.grid
                                or not np.array_equal(stab.phi.values, phi.values)):
        raise ValueError("stabilizer and potential have different reference maps")
    _require_isotropic(b.a, phi)
    omega = fl.pullback_coisotropy(phi)
    dw = stabilizer_log_derivative(stab)
    return fl.PotentialField(ad_inverse_apply(stab.w, b.a - omega) + omega + dw, phi)


def smooth_scalar(grid, rng, amplitude=1.0):
    """gauge.smooth_scalar as it computed each mode: one sin over the whole grid."""
    c = grid.axis_coords() * (2.0 * np.pi / grid.length)
    x, y, z = c[:, None, None], c[None, :, None], c[None, None, :]
    out = np.zeros((grid.n,) * 3)
    for _ in range(3):
        k = rng.integers(-1, 2, size=3)
        phase = rng.uniform(0, 2 * np.pi)
        amp = rng.uniform(0.3, 1.0) * amplitude
        out += amp * np.sin((x * k[0] + y * k[1]) + z * k[2] + phase)
    return out


# ---------------------------------------------------------------------------
# test-only helpers: references with no caller in the library
# ---------------------------------------------------------------------------

def quat_to_matrix(q):
    """Unit quaternion (..., 4) to the SU2 matrix z + w j -> [[z, w], [-w~, z~]]."""
    q = np.asarray(q)
    basis = su2_u1().basis_matrices
    out = q[..., 0, None, None] * np.eye(2, dtype=complex)
    for a in range(3):
        out = out + q[..., 1 + a, None, None] * basis[a]
    return out


def matrix_exp(X):
    """exp of anti-Hermitian matrices, unitary to rounding: with -iX =
    V diag(w) V^H (eigh), exp X = V diag(e^(iw)) V^H."""
    w, V = np.linalg.eigh(-1j * np.asarray(X))
    return (V * np.exp(1j * w)[..., None, :]) @ np.conj(np.swapaxes(V, -1, -2))


def cp1_lift_of(point, tol=1e-12):
    """One representative g with g i g^-1 = point (shortest rotation from i)."""
    p = np.asarray(point, dtype=float)
    check_unit(p, "coset point")
    i = np.zeros_like(p)
    i[..., 0] = 1.0
    # rotation by angle arccos(i.p) about the normalized axis i x p
    c = np.clip(p[..., 0], -1.0, 1.0)  # i . p
    axis = np.cross(i, p)
    s = np.linalg.norm(axis, axis=-1)
    g = np.zeros(p.shape[:-1] + (4,))
    reg = s > tol
    half = 0.5 * np.arccos(c)
    g[..., 0] = np.cos(half)
    with np.errstate(invalid="ignore", divide="ignore"):
        unit_axis = np.where(reg[..., None], axis / np.where(reg, s, 1.0)[..., None], 0.0)
    g[..., 1:] = np.sin(half)[..., None] * unit_axis
    # antipode p = -i: rotate by pi about j
    anti = (~reg) & (c < 0)
    g[anti] = np.array([0.0, 0.0, 1.0, 0.0])
    at_i = (~reg) & (c >= 0)
    g[at_i] = np.array([1.0, 0.0, 0.0, 0.0])
    return g


def tangency_residual(psi):
    """Smoothness diagnostic: max |psi . D_mu psi| over sites and axes."""
    worst = 0.0
    for mu in range(3):
        v = centered_diff(psi.values, mu, psi.grid.h)
        worst = max(worst, float(np.max(np.abs(np.sum(v * psi.values, axis=-1)))))
    return worst


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


def descent_energy(psi):
    """(dirichlet, skyrme) of the descent objective, site-major throughout."""
    h = psi.grid.h
    p = psi.values
    e2 = np.zeros(p.shape[:-1])
    for mu in range(3):
        delta = np.roll(p, -1, axis=mu) - p
        e2 += np.sum(delta * delta, axis=-1)
    e4 = np.zeros_like(e2)
    peak = 0.0
    for mu, nu in SLOTS2:
        p10, p11, p01 = _corners(p, mu, nu)
        t1, t2 = spherical_triangle_area(p, p10, p11), spherical_triangle_area(p, p11, p01)
        peak = max(peak, np.max(np.abs(t1)), np.max(np.abs(t2)))
        area = t1 + t2
        e4 += area * area
    # the admissibility wall: +inf once any single triangle reaches A_MAX
    skyrme = np.inf if peak >= A_MAX else float(np.sum(e4)) / (16.0 * h)
    return float(np.sum(e2)) * h / 8.0, skyrme


def descent_gradient(psi):
    """Tangent gradient of descent_energy, scattered as whole site vectors."""
    h = psi.grid.h
    p = psi.values
    grad = np.zeros_like(p)
    for mu in range(3):
        grad += 0.25 * h * (
            2.0 * p - np.roll(p, -1, axis=mu) - np.roll(p, 1, axis=mu))
    for mu, nu in SLOTS2:
        p10, p11, p01 = _corners(p, mu, nu)
        a1, g1a, g1b, g1c = spherical_triangle_area(p, p10, p11, with_grads=True)
        a2, g2a, g2b, g2c = spherical_triangle_area(p, p11, p01, with_grads=True)
        w = (1.0 / (8.0 * h)) * (a1 + a2)[..., None]
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


def trace_tensor(pair):
    """T[a, b, c] = Re tr(e_a e_b e_c) of the pair's basis matrices."""
    B = pair.basis_matrices
    return np.real(np.einsum("aij,bjk,cki->abc", B, B, B))


def triple_trace_wedge_data(A, B, G, T):
    """tr(A ^ B ^ G) per site on 1-form data (..., 3, dim), trace via the tensor T."""
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


def ad_route_split(pair, g, xi):
    """(Ad(g) proj_h Ad(g^-1) xi, Ad(g) proj_perp Ad(g^-1) xi) at a group
    representative g: both parts through Ad, the perp one not as xi - par."""
    down = pair.ad(pair.inverse(g), xi)
    return pair.ad(g, pair.proj_h(down)), pair.ad(g, pair.proj_perp(down))


def slotwise_ad_split(form, phi):
    """Isotropy split along a matrix-pair map through Ad of its representatives,
    one slot at a time."""
    parts = [ad_route_split(phi.pair, phi.values, form.slot(idx))
             for idx in range(form.data.shape[3])]
    return tuple(LatticeField.from_slots(form.grid, form.degree, list(slots))
                 for slots in zip(*parts))


# the periodic solves with complex full-spectrum transforms -----------------

def full_spectrum_symbols(grid):
    """Symbols of the forward difference under np.fft.fftn, and their squared sum."""
    n, h = grid.n, grid.h
    k = np.fft.fftfreq(n, d=1.0 / n)
    sym = (np.exp(2j * np.pi * k / n) - 1.0) / h
    s = [sym.reshape([-1 if ax == m else 1 for ax in range(3)]) for m in range(3)]
    S = sum(np.abs(sm) ** 2 for sm in s)
    S[(0,) * 3] = 1.0
    return s, S


def vector_potential(F):
    """A with dA = F and zero mean, one complex fftn and ifftn per slot."""
    n = F.grid.n
    s, S = full_spectrum_symbols(F.grid)
    Fhat = [np.fft.fftn(F.slot(slot)[..., 0]) for slot in range(len(SLOTS2))]
    out = np.empty((n, n, n, 3, 1))
    for nu in range(3):
        acc = np.zeros((n, n, n), dtype=complex)
        for mu in range(3):
            if mu < nu:
                acc += np.conj(s[mu]) * Fhat[SLOTS2.index((mu, nu))]
            elif mu > nu:
                acc -= np.conj(s[mu]) * Fhat[SLOTS2.index((nu, mu))]
        acc /= S
        acc[(0,) * 3] = 0.0
        out[:, :, :, nu, 0] = np.real(np.fft.ifftn(acc))
    return LatticeField(F.grid, 1, out)


def gauge_smooth_theta(b):
    """The Coulomb-gauge angle theta of gauge.gauge_smooth for b = beta phi,
    by complex fftn and ifftn."""
    s, S = full_spectrum_symbols(b.grid)
    theta_hat = sum(np.conj(s[mu]) * np.fft.fftn(np.sum(b.a.slot(mu) * b.phi.values, axis=-1))
                    for mu in range(3))
    theta_hat /= -S
    theta_hat[(0,) * 3] = 0.0
    return np.real(np.fft.ifftn(theta_hat))


def face_crossings_per_triangle(psi, p):
    """Preimage crossings of p through cell faces, each face triangle tested on its own.

    The per-triangle finder topology._face_crossings replaced: barycentric
    weights by whole-grid division, a |det| > 1e-14 cut and the hemisphere
    test, on the triangles (00, 10, 11) and (00, 11, 01) of each face.  A
    preimage through a lattice edge can come back from two or three of the
    triangles around it, or from none.  Returns (position, cube entered,
    cube left) triples in topology's order, frame and dot product included.
    """
    from hopfion.topology import _FACE_AXES, _orthonormal_frame

    n = psi.grid.n
    p, e1, e2 = _orthonormal_frame(p)
    f = [lattice.dot(psi.values, e) for e in (e1, e2, p)]
    crossings = []
    for rho, (mu, nu) in _FACE_AXES.items():
        c10 = [np.roll(x, -1, axis=mu) for x in f]
        c11 = [np.roll(x, -1, axis=nu) for x in c10]
        c01 = [np.roll(x, -1, axis=nu) for x in f]
        for (A, B, C), corners in (((f, c10, c11), ((0, 0), (1, 0), (1, 1))),
                                   ((f, c11, c01), ((0, 0), (1, 1), (0, 1)))):
            d1x, d1y = B[0] - A[0], B[1] - A[1]
            d2x, d2y = C[0] - A[0], C[1] - A[1]
            det = d1x * d2y - d1y * d2x
            with np.errstate(divide="ignore", invalid="ignore"):
                lb = (-A[0] * d2y + A[1] * d2x) / det
                lc = (-d1x * A[1] + d1y * A[0]) / det
                hemi = (1.0 - lb - lc) * A[2] + lb * B[2] + lc * C[2]
                ok = ((np.abs(det) > 1e-14) & (lb >= 0) & (lc >= 0)
                      & (lb + lc <= 1) & (hemi > 0))
            idx = np.argwhere(ok)
            lbv, lcv = lb[ok], lc[ok]
            up = np.sign(det[ok]) * (-1) ** rho > 0
            (a0, a1), (b0, b1), (c0, c1) = corners
            pos = idx.astype(float)
            pos[:, mu] += (1 - lbv - lcv) * a0 + lbv * b0 + lcv * c0
            pos[:, nu] += (1 - lbv - lcv) * a1 + lbv * b1 + lcv * c1
            pos *= psi.grid.h
            below = idx.copy()
            below[:, rho] -= 1
            below %= n
            for pp, face, under, s in zip(pos, map(tuple, idx.tolist()),
                                          map(tuple, below.tolist()), up.tolist()):
                crossings.append((pp, face, under) if s else (pp, under, face))
    return crossings
