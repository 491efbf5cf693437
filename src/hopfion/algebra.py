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

The whole-grid kernels (qmul, qrotate, qconj, qembed, qexp, qlog, the su2
bracket, the CP1 split, plaquette_areas) work component by component and
round exactly as the np.sum / np.cross / np.sinc formulas they replaced;
they take their last-axis cross and dot from lattice, except qmul, which
writes its dot and cross term by term into the slots of its output.

Storage: qmul, qconj, qrotate and the CP1 split allocate their results
like their operand of full shape, so component-major forms, maps and
lifts (see lattice) give component-major results whose components are
contiguous blocks.
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


def qembed(v):
    """Imaginary-part coefficients (..., 3) as full quaternions (..., 4)."""
    v = np.asarray(v)
    out = np.empty(v.shape[:-1] + (4,), dtype=v.dtype)
    out[..., 0] = 0
    out[..., 1:] = v
    return out


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


# sites per slab of qrotate.  Whole-grid temporaries would peak above the
# qim(qmul(...)) chain it replaces.  Tracemalloc peak MiB / median ms on
# component-major form data over 3 slots (2 cores, numpy 2.4.6):
#   n = 32: chain 8.6 / 12.0, 2^11 3.6 / 13.2, 2^13 3.8 / 11.8,
#           2^15 5.7 / 10.2, whole grid 10.8 / 10.3
#   n = 64: chain 68.1 / 133, 2^11 27.0 / 61, 2^13 27.0 / 66,
#           2^15 27.9 / 60, whole grid 86.1 / 86
# so 2^11 to 2^13 sites keep the lowest peak at no measurable cost in time
_SLAB_SITES = 1 << 13


def qrotate(g, v):
    """Adjoint action g v g^-1 on imaginary coefficients v (..., 3).

    qim(qmul(qmul(g, qembed(v)), qconj(g))) fused, slab by slab along the
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

@dataclass(frozen=True)
class HomogeneousPair:
    """Data of a pair (G, H): orthonormal basis of g, H-subbasis, brackets.

    basis_matrices holds anti-Hermitian matrices of the defining
    representation matching the coefficient convention of the pair (for
    quaternion pairs these are the images of i, j, k).  The Frobenius gram
    must be a positive multiple of the identity so that coefficient
    extraction is a single contraction; the abstract inner product on g is
    always the plain coefficient dot product.  structure_consts f[a, b, c]
    satisfies [e_a, e_b] = f[a, b, c] e_c and trace_tensor
    T[a, b, c] = Re tr(e_a e_b e_c) feeds the Chern-Simons integrand.
    """

    name: str
    basis_matrices: np.ndarray
    basis_h: tuple
    symmetric: bool
    group_kind: str  # 'quaternion' or 'matrix'
    structure_consts: np.ndarray = field(default=None, repr=False)
    trace_tensor: np.ndarray = field(default=None, repr=False)
    _frob_scale: float = field(default=None, repr=False)

    def __post_init__(self):
        B = np.asarray(self.basis_matrices)
        dim = B.shape[0]
        gram = np.real(np.einsum("aij,bij->ab", B.conj(), B))
        scale = gram[0, 0]
        if not np.allclose(gram, scale * np.eye(dim), atol=1e-12) or scale <= 0:
            raise ValueError("basis gram is not a positive multiple of the identity")
        object.__setattr__(self, "_frob_scale", scale)
        comm = np.einsum("aij,bjk->abik", B, B) - np.einsum("bij,ajk->abik", B, B)
        f = np.real(np.einsum("abij,cij->abc", comm, B.conj())) / scale
        T = np.real(np.einsum("aij,bjk,cki->abc", B, B, B))
        object.__setattr__(self, "structure_consts", f)
        object.__setattr__(self, "trace_tensor", T)

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
        return out / self._frob_scale

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
    """isotropy_split, with a CP1 point x first checked finite and unit."""
    if _is_cp1_point(pair, x):
        check_unit(x, "coset point")
    return isotropy_split(pair, x, xi)


def isotropy_split(pair, x, xi):
    """Split xi into (isotropic, coisotropic) parts at the coset point x.

    The one pointwise split into h_x and its orthogonal complement.  x is
    either a unit imaginary quaternion, not checked (CP1 fast path:
    par = (xi.phi) phi, perp = xi - par), or a group representative g with
    x = gH, in which case both parts route through Ad(g).  x broadcasts
    against xi, so a form splits in one call with x = phi.values[:, :, :, None].
    """
    xi = np.asarray(xi)
    if _is_cp1_point(pair, x):
        phi = np.asarray(x)
        par = empty_like_operands(np.broadcast_shapes(xi.shape, phi.shape),
                                  np.result_type(xi, phi), xi)
        np.multiply(dot(xi, phi)[..., None], phi, out=par)
        return par, xi - par
    g = np.asarray(x)
    down = pair.ad(pair.inverse(g), xi)
    return pair.ad(g, pair.proj_h(down)), pair.ad(g, pair.proj_perp(down))


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
        return qim(qmul(qembed(q), qembed(eta))) * 0.5
    _, perp = project_isotropy(pair, x, tangent)
    return perp


def cp1_point_of(g):
    """Coset point of a representative: q U1 -> q i q^-1 in Im H."""
    return qrotate(g, np.array([1.0, 0.0, 0.0]))


def _triangle(a, b, c, with_grads):
    """Signed area 2 atan2(a.(b x c), 1 + a.b + b.c + c.a) [, vertex gradients].

    a, b and c are component-major (3, n, n, n); cross and dot see them as
    np.moveaxis(x, 0, -1) views, whose components are the same contiguous
    blocks (taken by transpose, which costs a twentieth of moveaxis's
    call overhead; at n = 24 that overhead is measurable in relax).
    """
    a, b, c = (x.transpose(1, 2, 3, 0) for x in (a, b, c))
    bxc = cross(b, c)
    n = dot(a, bxc)
    d = 1.0 + dot(a, b)
    d += dot(b, c)
    d += dot(c, a)
    area = 2.0 * np.arctan2(n, d)
    if not with_grads:
        return area
    denom = n * n + d * d
    cn, cd = (2.0 * d / denom)[..., None], (-2.0 * n / denom)[..., None]
    out = [area]
    for x, u, v in ((bxc, b, c), (cross(c, a), a, c), (cross(a, b), a, b)):
        x *= cn
        uv = u + v
        uv *= cd
        x += uv
        del uv
        out.append(x.transpose(3, 0, 1, 2))
    return out


def plaquette_areas(p, with_grads=False):
    """Signed spherical areas swept by the lattice plaquettes of a CP1 map.

    p holds unit vectors component-major, shape (3, n, n, n).  Yields
    ((mu, nu), area) slot by slot in SLOTS2 order; area[x] sums the geodesic
    triangles (x, x+mu, x+mu+nu) and (x, x+mu+nu, x+nu).  with_grads adds
    the gradients of area[x] at the corners x, x+mu, x+mu+nu and x+nu.
    Every product and sum matches np.cross and np.sum(..., axis=-1) term
    for term (IEEE + and * commute), so results round as the site-major
    formula does; arithmetic runs in place to spare temporaries.
    """
    for mu, nu in SLOTS2:
        # x+mu is freed before x+nu is made: two shifted copies at a time
        p10 = np.roll(p, -1, axis=mu + 1)
        p11 = np.roll(p10, -1, axis=nu + 1)
        first = _triangle(p, p10, p11, with_grads)
        del p10
        p01 = np.roll(p, -1, axis=nu + 1)
        second = _triangle(p, p11, p01, with_grads)
        del p11, p01
        if not with_grads:
            first += second
            del second
            yield (mu, nu), first
        else:
            a1, g00, g10, g11 = first
            a2, g2a, g2b, g01 = second
            g00 += g2a
            g11 += g2b
            del first, second, g2a, g2b  # free them before the caller scatters
            yield (mu, nu), a1 + a2, (g00, g10, g11, g01)


# ---------------------------------------------------------------------------
# exponentials / logarithms for matrix groups (near-identity regime)
# ---------------------------------------------------------------------------

def matrix_log_unitary(U):
    """Principal log of unitary matrices near the identity (48-term Mercator series)."""
    U = np.asarray(U)
    X = U - np.eye(U.shape[-1], dtype=complex)
    norms = np.linalg.norm(X, axis=(-2, -1))
    if np.any(norms > 0.9):
        raise RoughFieldError("field too rough for grid")
    out = np.zeros_like(X)
    term = np.broadcast_to(np.eye(U.shape[-1], dtype=complex), U.shape).copy()
    for k in range(1, 49):
        term = term @ X
        out = out + ((-1) ** (k + 1) / k) * term
    # clean to the Lie algebra: anti-Hermitian, traceless
    out = 0.5 * (out - np.swapaxes(out, -1, -2).conj())
    tr = np.trace(out, axis1=-2, axis2=-1) / U.shape[-1]
    out = out - tr[..., None, None] * np.eye(U.shape[-1])
    return out
