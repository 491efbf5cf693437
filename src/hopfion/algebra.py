"""Quaternion arithmetic, homogeneous pairs and the coisotropy form.

Group elements of SU2 are stored as arrays of shape (..., 4) holding
[w, x, y, z] with the Hamilton product convention ij = k.  The imaginary
part [x, y, z] doubles as the coefficient vector of a Lie algebra element
in the basis {i, j, k}, which is declared orthonormal: every inner product
below is the plain coefficient dot product.  The 2-sphere SU2/U1 is stored
through the conjugation embedding q U1 -> q i q^-1, i.e. as unit imaginary
quaternions.

A general pair (G, H) is represented by explicit anti-Hermitian basis
matrices of g in the defining representation, with H selected by a subset
of basis indices; group elements are then unitary matrices.

The whole-grid kernels (qmul, qrotate, qconj, qexp, qlog, the su2
bracket, the CP1 split, the plaquette kernels) work component by component and
round exactly as the np.sum / np.cross / np.sinc formulas they replaced;
they take their last-axis cross and dot from lattice, except qmul, which
writes its dot and cross term by term into the slots of its output.

The adjoint action has two kernels.  qrotate, the fused quaternion chain,
serves maps and lifts, whose results are pinned bit for bit; g-valued
forms rotate through qrotate_form, which applies one 3x3 matrix of g to
every slot and agrees with qrotate to a few ulps.

Storage: every kernel takes per-site values as they are stored, on the
last axis.  qmul, qconj, qrotate, qrotate_form, the CP1 split and
add_plaquette_gradient's corners allocate their results like their
operand of full shape, so component-major forms, maps and lifts (see
lattice) give component-major results whose components are contiguous
blocks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import RoughFieldError
from .lattice import SLOTS2, cross, dot, empty_like_operands

UNIT_TOL = 1e-8


# ---------------------------------------------------------------------------
# quaternion kernels
# ---------------------------------------------------------------------------

def qmul(p, q):
    """Hamilton product of quaternion arrays, broadcasting over leading axes.

    w = p0 q0 - p.q and v = p0 q + q0 p + p x q, component by component
    into the output, with the sums in the order of np.sum and np.cross.
    p.q and p x q are written inline, not taken from lattice.dot and
    lattice.cross: their (..., 3) results would raise the peak from 1.5
    to 2 inputs and the time by about 1.7x, with the same values.
    """
    p = np.asarray(p)
    q = np.asarray(q)
    out = empty_like_operands(np.broadcast_shapes(p.shape, q.shape), np.result_type(p, q), p, q)
    p0, p1, p2, p3 = (p[..., k] for k in range(4))
    q0, q1, q2, q3 = (q[..., k] for k in range(4))
    w = out[..., 0]
    np.multiply(p1, q1, out=w)
    w += p2 * q2
    w += p3 * q3
    np.subtract(p0 * q0, w, out=w)
    for k, pk, qk, (a, b, c, d) in ((1, p1, q1, (p2, q3, p3, q2)),
                                    (2, p2, q2, (p3, q1, p1, q3)),
                                    (3, p3, q3, (p1, q2, p2, q1))):
        v = out[..., k]
        np.multiply(p0, qk, out=v)
        v += q0 * pk
        pxq = a * b
        pxq -= c * d
        v += pxq
    return out


def qconj(q):
    q = np.asarray(q)
    out = np.empty_like(q)
    out[..., 0] = q[..., 0]
    np.negative(q[..., 1:], out=out[..., 1:])
    return out


def qnorm(q):
    return np.linalg.norm(np.asarray(q), axis=-1)


def qim(q):
    return np.asarray(q)[..., 1:]


def qexp(v):
    """Exponential of an imaginary quaternion given by coefficients (..., 3)."""
    v = np.asarray(v, dtype=float)
    theta = np.linalg.norm(v, axis=-1)
    out = np.empty(v.shape[:-1] + (4,))
    np.cos(theta, out=out[..., 0])
    # sinc is sin(pi x)/(pi x); safe at theta = 0
    np.multiply(np.sinc(theta / np.pi)[..., None], v, out=out[..., 1:])
    return out


def qlog(q):
    """Principal logarithm of unit quaternions, returned as coefficients.

    Raises RoughFieldError when the rotation angle reaches pi - 1e-6;
    for link variables this means the field varies too fast for the grid.
    """
    q = np.asarray(q, dtype=float)
    v = q[..., 1:]
    theta = np.linalg.norm(v, axis=-1, keepdims=True)
    np.arctan2(theta, np.clip(q[..., :1], -1.0, 1.0), out=theta)
    if np.any(theta >= np.pi - 1e-6):
        raise RoughFieldError("field too rough for grid")
    # theta/sin(theta) without the 0/0 as 1/np.sinc(theta/pi), in place and
    # term for term: y = pi (theta/pi), 0 -> eps, sinc = sin(y)/y
    y = theta
    y /= np.pi
    y *= np.pi
    y[y == 0] = np.finfo(y.dtype).eps
    factor = np.sin(y)
    factor /= y
    del theta, y
    np.divide(1.0, factor, out=factor)
    return factor * v


# sites per slab of qrotate (maps and lifts: fields.act, cp1_point_of), of
# qrotate_form (forms: gauge.ad_inverse_apply) and of the link logarithms of
# fields.maurer_cartan_slot; no value depends on it.
# Tracemalloc peak MiB / median ms with the output (2 cores, numpy 2.4.6) of
# qrotate on the hopf lift and map as fields.act calls it, and of
# qrotate_form on a 1-form (the whole grid is 2^15 sites at n = 32):
#                           2^11        2^13        2^14        2^15  whole grid
#   qrotate       n = 32   1.0 / 1.3   1.4 / 0.8   2.0 / 0.8   3.3 / 0.9
#                 n = 48   2.8 / 3.9   3.1 / 2.8   3.8 / 2.7   5.0 / 3.2  11.0 / 4.3
#                 n = 64   6.4 / 7.0   6.6 / 6.1   7.3 / 6.3   8.5 / 7.5  26.0 / 12.2
#   qrotate_form  n = 32   2.4 / 1.6   2.9 / 1.3   3.5 / 1.2   4.8 / 1.4
#                 n = 48   7.8 / 5.5   8.1 / 4.3   8.8 / 3.8  10.1 / 4.4  16.0 / 6.2
#                 n = 64  18.3 / 12.6 18.6 / 11.5 19.3 / 11.1 20.5 / 13.0 38.0 / 16.8
# 2^13 and 2^14 are the fastest for both kernels, within noise of each other,
# and 2^13 keeps the lower peak.  maurer_cartan_form on the charge-2 hopf lift,
# peak forms (n, n, n, 3, 3) with the output / median ms:
#                          2^13        2^14        2^15   whole grid
#   n = 48               1.10 / 16   1.23 / 15   1.45 / 16   2.56 / 19
#   n = 64               1.05 / 37   1.10 / 38   1.19 / 39   2.56 / 46
_SLAB_SITES = 1 << 13


def qrotate(g, v):
    """Adjoint action g v g^-1 on imaginary coefficients v (..., 3).

    qim(qmul(qmul(g, (0, v)), qconj(g))) fused, slab by slab along the
    leading axis: t = g (0, v), then only the imaginary part of t g^-1,
    each in qmul's operation order.  The terms with the embedded zero are
    dropped (adding +-0 moves only the sign of a zero) and signs are taken
    out of products (a (-b) = -(a b) exactly), so the values are the chain's.
    """
    g = np.asarray(g)
    v = np.asarray(v)
    shape = np.broadcast_shapes(g.shape[:-1], v.shape[:-1])
    out = empty_like_operands(shape + (3,), np.result_type(g, v), v)
    lead = shape or (1,)
    g = np.broadcast_to(g, lead + (4,))
    v = np.broadcast_to(v, lead + (3,))
    dest = out.reshape(lead + (3,))
    rows = max(1, _SLAB_SITES // (math.prod(lead[1:]) or 1))
    for x in range(0, lead[0], rows):
        gw, gv, vx = g[x:x + rows, ..., :1], g[x:x + rows, ..., 1:], v[x:x + rows]
        t = gw * vx                     # Im g (0, v); its real part is -(gv . v)
        t += cross(gv, vx)
        r = gw * t                      # Im (t g^-1)
        r += dot(gv, vx)[..., None] * gv
        np.add(r, cross(gv, t), out=dest[x:x + rows])
    return out


def _twice_difference_and_sum(p, q):
    """2 (p - q) and 2 (p + q), the second in p's buffer."""
    difference = p - q
    difference *= 2.0
    p += q
    p *= 2.0
    return difference, p


def _rotation_rows(g):
    """Rows of the 3x3 matrix of v -> g v conj(g) from g's homogeneous entries:
    diagonal ((w^2 + x^2) - y^2) - z^2, ((w^2 - x^2) + y^2) - z^2 and
    ((w^2 - x^2) - y^2) + z^2, off-diagonal 2 (xy -+ wz), 2 (xz +- wy) and
    2 (yz -+ wx), built in place so that each product is freed after use."""
    w, x, y, z = (g[..., k] for k in range(4))
    ww, xx, yy, zz = w * w, x * x, y * y, z * z
    d0 = ww + xx
    d0 -= yy
    d0 -= zz
    d2 = ww                 # w^2 - x^2 in ww's buffer, shared by d1 and d2
    d2 -= xx
    d1 = d2 + yy
    d1 -= zz
    d2 -= yy
    d2 += zz
    del ww, xx, yy, zz
    r01, r10 = _twice_difference_and_sum(x * y, w * z)
    r20, r02 = _twice_difference_and_sum(x * z, w * y)
    r12, r21 = _twice_difference_and_sum(y * z, w * x)
    return (d0, r01, r02), (r10, d1, r12), (r20, r21, d2)


def qrotate_form(g, v, out=None):
    """g v conj(g) on every slot of form data v (n, n, n, slots, 3), g (n, n, n, 4).

    The adjoint action g v g^-1 for unit g, through the 3x3 matrix of g:
    slab by slab along x, the matrix is built once from g's homogeneous
    entries (w^2 + x^2 - y^2 - z^2, 2(xy - wz), ...), so a g of any norm
    gives g v conj(g) as qrotate does, and each slot's three components take
    9 products and 6 sums, on contiguous blocks of a component-major v.
    The values agree with qrotate's to a few ulps, not bit for bit, hence
    two kernels: qrotate serves maps and lifts (fields.act, make_ansatz and
    with them every pinned map, charge and relax history), and forms, whose
    slots share one matrix, rotate here in a quarter of qrotate's time or less.

    out, when given, receives the result and may be v itself: each slab of v
    is then copied before its rotation overwrites it.
    """
    if out is None:
        out = np.empty_like(v)
    in_place = np.may_share_memory(out, v)
    rows = max(1, _SLAB_SITES // (g.shape[1] * g.shape[2]))
    for x in range(0, g.shape[0], rows):
        slab = slice(x, x + rows)
        _matrix_apply(_rotation_rows(g[slab]), v[slab].copy() if in_place else v[slab], out[slab])
    return out


def _matrix_apply(matrix, v, out):
    """out[..., s, k] = (m[k][0] v[..., s, 0] + m[k][1] v[..., s, 1]) + m[k][2] v[..., s, 2]
    for every slot s; the matrix is freed on return, before the next slab's."""
    for slot in range(v.shape[3]):
        for k, (m0, m1, m2) in enumerate(matrix):
            dest = np.multiply(m0, v[..., slot, 0], out=out[..., slot, k])
            dest += m1 * v[..., slot, 1]
            dest += m2 * v[..., slot, 2]


def random_unit_quaternions(rng, shape=()):
    q = rng.standard_normal(tuple(shape) + (4,))
    return q / qnorm(q)[..., None]


# SU2 defining representation of the quaternion basis
_SU2_BASIS = np.array(
    [
        [[1j, 0], [0, -1j]],  # i
        [[0, 1], [-1, 0]],    # j
        [[0, 1j], [1j, 0]],   # k
    ],
    dtype=complex,
)


# ---------------------------------------------------------------------------
# homogeneous pairs
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class HomogeneousPair:
    """Data of a pair (G, H): orthonormal basis of g, H-subbasis, brackets.

    Pairs compare and hash by identity (a field-wise == would compare
    ndarrays); the cached constructors return one object per pair.

    basis_matrices holds anti-Hermitian matrices of the defining
    representation matching the coefficient convention of the pair (for
    quaternion pairs these are the images of i, j, k).  The Frobenius gram
    must be a positive multiple of the identity so that coefficient
    extraction is a single contraction; the abstract inner product on g is
    always the plain coefficient dot product.  frob_scale is that gram's
    scale s, tr(e_a e_b) = -s delta_ab, and structure_consts f[a, b, c]
    satisfies [e_a, e_b] = f[a, b, c] e_c.
    """

    name: str
    basis_matrices: np.ndarray
    basis_h: tuple
    symmetric: bool
    group_kind: str  # 'quaternion' or 'matrix'
    structure_consts: np.ndarray = field(init=False, repr=False)
    frob_scale: float = field(init=False, repr=False)

    def __post_init__(self):
        B = np.asarray(self.basis_matrices)
        dim = B.shape[0]
        gram = np.real(np.einsum("aij,bij->ab", B.conj(), B))
        scale = gram[0, 0]
        if not np.allclose(gram, scale * np.eye(dim), atol=1e-12) or scale <= 0:
            raise ValueError("basis gram is not a positive multiple of the identity")
        object.__setattr__(self, "frob_scale", scale)
        comm = np.einsum("aij,bjk->abik", B, B) - np.einsum("bij,ajk->abik", B, B)
        f = np.real(np.einsum("abij,cij->abc", comm, B.conj())) / scale
        object.__setattr__(self, "structure_consts", f)

    # -- dimensions -----------------------------------------------------
    @property
    def dim_g(self):
        return self.basis_matrices.shape[0]

    @property
    def dim_h(self):
        return len(self.basis_h)

    # -- linear structure ------------------------------------------------
    def bracket(self, xi, eta):
        """[xi, eta] on coefficient arrays (..., dim_g)."""
        if self.group_kind == "quaternion":
            return 2.0 * cross(xi, eta)
        return np.einsum("...a,...b,abc->...c", xi, eta, self.structure_consts)

    def proj_h(self, xi):
        xi = np.asarray(xi)
        out = np.zeros_like(xi)
        idx = list(self.basis_h)
        out[..., idx] = xi[..., idx]
        return out

    def proj_perp(self, xi):
        return np.asarray(xi) - self.proj_h(xi)

    # -- group dependent pieces -------------------------------------------
    def matrix_of(self, xi):
        return np.einsum("...a,aij->...ij", xi, self.basis_matrices)

    def coeffs_of(self, X):
        out = np.real(np.einsum("...ij,aij->...a", X, self.basis_matrices.conj()))
        return out / self.frob_scale

    def ad(self, g, xi):
        """Ad(g) xi = g xi g^-1 on coefficients, g a group element.

        Broadcasts: g of shape (..., 1, 4) or (..., 1, N, N) acts on every
        slot of xi shaped (..., slots, dim_g).
        """
        if self.group_kind == "quaternion":
            check_unit(g, "group element")
            return qrotate(g, xi)
        return self.coeffs_of(np.asarray(g) @ self.matrix_of(xi) @ self.inverse(g))

    def inverse(self, g):
        """g^-1: the conjugate of a unit quaternion, the adjoint of a unitary matrix."""
        if self.group_kind == "quaternion":
            return qconj(g)
        return np.swapaxes(np.asarray(g), -1, -2).conj()

    def mul(self, g, k):
        """The group product g k."""
        if self.group_kind == "quaternion":
            return qmul(g, k)
        return np.asarray(g) @ k

    def log(self, g):
        """Principal logarithm of group elements, as coefficients on g."""
        if self.group_kind == "quaternion":
            return qlog(g)
        return self.coeffs_of(matrix_log_unitary(g))

    def identity_element(self, shape=()):
        if self.group_kind == "quaternion":
            e = np.zeros(tuple(shape) + (4,))
            e[..., 0] = 1.0
            return e
        eye = np.eye(self.basis_matrices.shape[1], dtype=complex)
        return np.broadcast_to(eye, tuple(shape) + eye.shape).copy()


def check_unit(q, what):
    """Raise ValueError unless every vector on the last axis is finite and unit to UNIT_TOL."""
    defect = np.abs(qnorm(q) - 1.0)
    if not np.all(defect <= UNIT_TOL):  # NaN fails the comparison too
        raise ValueError(f"{what} is not finite and unit to {UNIT_TOL:g} "
                         f"(max defect {np.max(defect):.3e})")


def _su2_pair(name, h_indices, symmetric):
    return HomogeneousPair(
        name=name,
        basis_matrices=_SU2_BASIS,
        basis_h=tuple(h_indices),
        symmetric=symmetric,
        group_kind="quaternion",
    )


def _gell_mann():
    l = np.zeros((8, 3, 3), dtype=complex)
    l[0, 0, 1] = l[0, 1, 0] = 1
    l[1, 0, 1] = -1j; l[1, 1, 0] = 1j
    l[2, 0, 0] = 1; l[2, 1, 1] = -1
    l[3, 0, 2] = l[3, 2, 0] = 1
    l[4, 0, 2] = -1j; l[4, 2, 0] = 1j
    l[5, 1, 2] = l[5, 2, 1] = 1
    l[6, 1, 2] = -1j; l[6, 2, 1] = 1j
    l[7] = np.diag([1, 1, -2]) / np.sqrt(3.0)
    return l


@functools.cache
def su2_u1():
    """(SU2, U1): the 2-sphere, symmetric; h = span(i)."""
    return _su2_pair("su2_u1", (0,), symmetric=True)


@functools.cache
def su2_group():
    """(SU2, {1}): the group itself as the target."""
    return _su2_pair("su2_group", (), symmetric=False)


@functools.cache
def su3_t2():
    """(SU3, T^2): the full flag manifold, non-symmetric; h = the Cartan torus."""
    return HomogeneousPair(
        name="su3_t2",
        basis_matrices=1j * _gell_mann() / np.sqrt(2.0),
        basis_h=(2, 7),  # lambda_3, lambda_8 directions
        symmetric=False,
        group_kind="matrix",
    )


# ---------------------------------------------------------------------------
# spec operations
# ---------------------------------------------------------------------------

def _is_cp1_point(pair, x):
    return pair.group_kind == "quaternion" and np.asarray(x).shape[-1] == 3


def project_isotropy(pair, x, xi):
    """(isotropic, coisotropic) parts of xi at x, a CP1 point x first checked
    finite and unit."""
    if _is_cp1_point(pair, x):
        check_unit(x, "coset point")
    par = isotropic_part(pair, x, xi)
    return par, np.asarray(xi) - par


def isotropic_part(pair, x, xi):
    """The part of xi in h_x, the one pointwise isotropy projection; the
    coisotropic part is xi minus it.

    x is either a unit imaginary quaternion, not checked (CP1 fast path:
    (xi.phi) phi, laid out like xi where their shapes agree), or a group
    representative g with x = gH, in which case the part is Ad(g) proj_h
    Ad(g^-1) xi.  x broadcasts against xi, so a form projects in one call with
    x = phi.values[:, :, :, None].
    """
    if not _is_cp1_point(pair, x):
        g = np.asarray(x)
        return pair.ad(g, pair.proj_h(pair.ad(pair.inverse(g), xi)))
    xi, phi = np.asarray(xi), np.asarray(x)
    out = empty_like_operands(np.broadcast_shapes(xi.shape, phi.shape),
                              np.result_type(xi, phi), xi)
    return np.multiply(dot(xi, phi)[..., None], phi, out=out)


def coisotropy_form(pair, x, tangent):
    """The left-equivariant g-valued 1-form on G/H evaluated on one tangent.

    CP1 fast path: x a unit imaginary quaternion, tangent a vector of Im H
    perpendicular to x; the value is x * tangent / 2.  Generic path: x a
    group representative and tangent the Lie algebra vector xi generating
    the tangent xi.x; the value is the projection of xi onto Ad(g) h-perp.
    """
    if _is_cp1_point(pair, x):
        q = np.asarray(x)
        check_unit(q, "coset point")
        eta = np.asarray(tangent)
        off = np.abs(np.sum(eta * q, axis=-1))
        scale = np.maximum(np.linalg.norm(eta, axis=-1), 1.0)
        if np.any(off > 1e-8 * scale):
            raise ValueError("tangent is not tangent to the sphere at x")
        return 0.5 * cross(q, eta)
    return np.asarray(tangent) - isotropic_part(pair, x, tangent)


def cp1_point_of(g):
    """Coset point of a representative: q U1 -> q i q^-1 in Im H."""
    return qrotate(g, np.array([1.0, 0.0, 0.0]))


def _triangle(a, b, c, with_grads):
    """Signed area 2 atan2(n, d), n = a.(b x c), d = 1 + a.b + b.c + c.a, of
    3-vectors on the last axis [, b x c, 2d / (n^2 + d^2), -2n / (n^2 + d^2)],
    the last two (..., 1) weights for _vertex_gradient."""
    bxc = cross(b, c)
    n = dot(a, bxc)
    d = 1.0 + dot(a, b)
    d += dot(b, c)
    d += dot(c, a)
    area = 2.0 * np.arctan2(n, d)
    if not with_grads:
        return area
    denom = n * n + d * d
    return area, bxc, (2.0 * d / denom)[..., None], (-2.0 * n / denom)[..., None]


def _vertex_gradient(x, u, v, cn, cd):
    """cn x + cd (u + v) in place in x: the area gradient at a vertex, x being
    the cross product of the other two, u and v, in cyclic order."""
    x *= cn
    uv = u + v
    uv *= cd
    x += uv
    return x


def _slot_gradients(p, mu, nu):
    """The (mu, nu) plaquette areas and their peak |triangle|, then their
    gradients at corners 00, 10, 11 and 01, each formed when asked for and
    dropped once handed out."""
    p10 = np.roll(p, -1, axis=mu)
    p11 = np.roll(p10, -1, axis=nu)
    p01 = np.roll(p, -1, axis=nu)
    a1, x1, *w1 = _triangle(p, p10, p11, True)
    a2, x2, *w2 = _triangle(p, p11, p01, True)
    peak = max(float(np.max(np.abs(a1))), float(np.max(np.abs(a2))))
    a1 += a2
    del a2
    yield a1, peak
    del a1
    corner = _vertex_gradient(x1, p10, p11, *w1)
    corner += _vertex_gradient(x2, p11, p01, *w2)
    del x1, x2
    yield corner
    del corner
    yield _vertex_gradient(cross(p11, p), p, p11, *w1)
    corner = _vertex_gradient(cross(p, p10), p, p10, *w1)
    del p10
    corner += _vertex_gradient(cross(p01, p), p, p01, *w2)
    del p01
    yield corner
    del corner
    yield _vertex_gradient(cross(p, p11), p, p11, *w2)


def plaquette_areas(p):
    """Signed spherical areas swept by the lattice plaquettes of a CP1 map.

    p holds unit 3-vectors on its last axis, shape (n, n, n, 3), in any
    layout: a map's component-major values as stored, or a C-order array.
    Yields ((mu, nu), area, peak) slot by slot in SLOTS2 order, rolling p
    along grid axes mu and nu; area[x] sums the geodesic triangles
    (x, x+mu, x+mu+nu) and (x, x+mu+nu, x+nu), and peak is the largest
    |area| of a single triangle in the slot, read off the two triangles
    before they are summed.  Every product and sum matches np.cross and
    np.sum(..., axis=-1) term for term, so results round as the site-major
    formula does, in either layout; arithmetic runs in place to spare
    temporaries.
    """
    for mu, nu in SLOTS2:
        # x+mu is freed before x+nu is made: two shifted copies at a time
        p10 = np.roll(p, -1, axis=mu)
        p11 = np.roll(p10, -1, axis=nu)
        area = _triangle(p, p10, p11, False)
        del p10
        p01 = np.roll(p, -1, axis=nu)
        second = _triangle(p, p11, p01, False)
        del p11, p01
        peak = max(float(np.max(np.abs(area))), float(np.max(np.abs(second))))
        area += second
        yield (mu, nu), area, peak


def add_plaquette_gradient(p, scale, out):
    """The one gradient pass over the plaquettes of p: add into out, laid out
    like p, the gradient of scale / 2 times the sum of the squared plaquette
    areas, slot by slot.

    A generator: for each slot it first yields ((mu, nu), area, peak) as
    plaquette_areas(p) does, the same bits, and when resumed weights the
    gradients at corners x, x+mu, x+mu+nu and x+nu by scale * area, each
    formed, weighted and rolled back onto its site before the next is formed:
    one corner is held at a time.  A consumer that stops adds no corner of the
    slot it stopped at; run to its end, it has added the whole gradient.
    """
    for mu, nu in SLOTS2:
        slot = _slot_gradients(p, mu, nu)
        area, peak = next(slot)
        yield (mu, nu), area, peak
        weight = (scale * area)[..., None]
        del area
        for corner, axes in zip(slot, ((), (mu,), (mu, nu), (nu,))):
            corner *= weight
            for axis in axes:
                corner = np.roll(corner, 1, axis=axis)
            out += corner
            del corner


# ---------------------------------------------------------------------------
# logarithm for matrix groups
# ---------------------------------------------------------------------------

def matrix_log_unitary(U):
    """Principal log of SU(N) matrices in closed form.

    C = (U + 1)^-1 (U - 1) has the eigenvalue i tan(theta / 2) where U has
    e^(i theta): with -iC = V diag(t) V^H (eigh), log U = V diag(2i arctan t) V^H.
    Raises RoughFieldError for an angle of pi - 1e-6 or more (qlog's cut), a
    singular U + 1, or a log outside su(N) (|sum theta| > 1e-8).
    """
    eye = np.eye(np.shape(U)[-1])
    try:
        H = -1j * np.linalg.solve(U + eye, U - eye)
        t, V = np.linalg.eigh(0.5 * (H + np.swapaxes(H, -1, -2).conj()))
    except np.linalg.LinAlgError:  # U + 1 singular
        raise RoughFieldError("field too rough for grid") from None
    theta = 2.0 * np.arctan(t)
    if not (np.all(np.abs(theta) < np.pi - 1e-6)
            and np.all(np.abs(np.sum(theta, axis=-1)) <= 1e-8)):
        raise RoughFieldError("field too rough for grid")
    return (V * (1j * theta)[..., None, :]) @ np.swapaxes(V, -1, -2).conj()
