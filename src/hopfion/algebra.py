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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import RoughFieldError
from .lattice import SLOTS2

UNIT_TOL = 1e-8


# ---------------------------------------------------------------------------
# quaternion kernels
# ---------------------------------------------------------------------------

def qmul(p, q):
    """Hamilton product of quaternion arrays, broadcasting over leading axes."""
    p = np.asarray(p)
    q = np.asarray(q)
    pw, pv = p[..., :1], p[..., 1:]
    qw, qv = q[..., :1], q[..., 1:]
    w = pw * qw - np.sum(pv * qv, axis=-1, keepdims=True)
    v = pw * qv + qw * pv + np.cross(pv, qv)
    return np.concatenate([w, v], axis=-1)


def qconj(q):
    q = np.asarray(q)
    return np.concatenate([q[..., :1], -q[..., 1:]], axis=-1)


def qnorm(q):
    return np.linalg.norm(np.asarray(q), axis=-1)


def qnormalize(q):
    q = np.asarray(q, dtype=float)
    return q / qnorm(q)[..., None]


def qembed(v):
    """Imaginary-part coefficients (..., 3) as full quaternions (..., 4)."""
    v = np.asarray(v)
    w = np.zeros(v.shape[:-1] + (1,), dtype=v.dtype)
    return np.concatenate([w, v], axis=-1)


def qim(q):
    return np.asarray(q)[..., 1:]


def qexp(v):
    """Exponential of an imaginary quaternion given by coefficients (..., 3)."""
    v = np.asarray(v, dtype=float)
    theta = np.linalg.norm(v, axis=-1)
    # sinc is sin(pi x)/(pi x); safe at theta = 0
    s = np.sinc(theta / np.pi)
    w = np.cos(theta)[..., None]
    return np.concatenate([w, s[..., None] * v], axis=-1)


def qlog(q, cut=np.pi - 1e-6):
    """Principal logarithm of unit quaternions, returned as coefficients.

    Raises RoughFieldError when the rotation angle reaches the cut locus;
    for link variables this means the field varies too fast for the grid.
    """
    q = np.asarray(q, dtype=float)
    w = np.clip(q[..., 0], -1.0, 1.0)
    v = q[..., 1:]
    s = np.linalg.norm(v, axis=-1)
    theta = np.arctan2(s, w)
    if np.any(theta >= cut):
        raise RoughFieldError("field too rough for grid")
    # theta/sin(theta) without the 0/0: sinc(theta/pi) = sin(theta)/theta
    factor = 1.0 / np.sinc(theta / np.pi)
    return factor[..., None] * v


def qrotate(g, v):
    """Adjoint action g v g^-1 on imaginary coefficients v (..., 3)."""
    return qim(qmul(qmul(g, qembed(v)), qconj(g)))


def random_unit_quaternions(rng, shape=()):
    q = rng.standard_normal(tuple(shape) + (4,))
    return qnormalize(q)


# SU2 defining representation of the quaternion basis
_SU2_BASIS = np.array(
    [
        [[1j, 0], [0, -1j]],  # i
        [[0, 1], [-1, 0]],    # j
        [[0, 1j], [1j, 0]],   # k
    ],
    dtype=complex,
)


def quat_to_matrix(q):
    """Unit quaternion (..., 4) to the SU2 matrix z + w j -> [[z, w], [-w~, z~]]."""
    q = np.asarray(q)
    eye = np.eye(2, dtype=complex)
    out = q[..., 0, None, None] * eye
    for a in range(3):
        out = out + q[..., 1 + a, None, None] * _SU2_BASIS[a]
    return out


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
    simple_block_map: tuple = ((),)  # filled in __post_init__ when trivial
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
        if self.simple_block_map == ((),):
            object.__setattr__(self, "simple_block_map", (tuple(range(dim)),))

    # -- dimensions -----------------------------------------------------
    @property
    def dim_g(self):
        return self.basis_matrices.shape[0]

    @property
    def dim_h(self):
        return len(self.basis_h)

    @property
    def group_dim(self):
        return self.basis_matrices.shape[1]

    @property
    def n_blocks(self):
        return len(self.simple_block_map)

    # -- linear structure ------------------------------------------------
    def bracket(self, xi, eta):
        """[xi, eta] on coefficient arrays (..., dim_g)."""
        if self.group_kind == "quaternion":
            return 2.0 * np.cross(xi, eta)
        return np.einsum("...a,...b,abc->...c", xi, eta, self.structure_consts)

    def proj_h(self, xi):
        xi = np.asarray(xi)
        out = np.zeros_like(xi)
        idx = list(self.basis_h)
        out[..., idx] = xi[..., idx]
        return out

    def proj_perp(self, xi):
        return np.asarray(xi) - self.proj_h(xi)

    def block_project(self, xi, block):
        out = np.zeros_like(np.asarray(xi))
        idx = list(self.simple_block_map[block])
        out[..., idx] = np.asarray(xi)[..., idx]
        return out

    # -- group dependent pieces -------------------------------------------
    def matrix_of(self, xi):
        return np.einsum("...a,aij->...ij", xi, self.basis_matrices)

    def coeffs_of(self, X):
        out = np.real(np.einsum("...ij,aij->...a", X, self.basis_matrices.conj()))
        return out / self._frob_scale

    def ad(self, g, xi):
        """Ad(g) xi = g xi g^-1 on coefficients, g a group element."""
        if self.group_kind == "quaternion":
            _check_unit_quaternion(g)
            return qrotate(g, xi)
        X = self.matrix_of(xi)
        gH = np.swapaxes(np.asarray(g), -1, -2).conj()
        return self.coeffs_of(np.asarray(g) @ X @ gH)

    def identity_element(self, shape=()):
        if self.group_kind == "quaternion":
            e = np.zeros(tuple(shape) + (4,))
            e[..., 0] = 1.0
            return e
        eye = np.eye(self.group_dim, dtype=complex)
        return np.broadcast_to(eye, tuple(shape) + eye.shape).copy()


def _check_unit_quaternion(g, tol=UNIT_TOL):
    bad = np.abs(qnorm(g) - 1.0)
    if np.any(bad > tol):
        raise ValueError(f"group element is not unit to {tol:g} (max defect {bad.max():.3e})")


def _su2_pair(name, h_indices, symmetric):
    return HomogeneousPair(
        name=name,
        basis_matrices=_SU2_BASIS,
        basis_h=tuple(h_indices),
        symmetric=symmetric,
        group_kind="quaternion",
    )


_GELL_MANN = None


def _gell_mann():
    global _GELL_MANN
    if _GELL_MANN is None:
        l = np.zeros((8, 3, 3), dtype=complex)
        l[0, 0, 1] = l[0, 1, 0] = 1
        l[1, 0, 1] = -1j; l[1, 1, 0] = 1j
        l[2, 0, 0] = 1; l[2, 1, 1] = -1
        l[3, 0, 2] = l[3, 2, 0] = 1
        l[4, 0, 2] = -1j; l[4, 2, 0] = 1j
        l[5, 1, 2] = l[5, 2, 1] = 1
        l[6, 1, 2] = -1j; l[6, 2, 1] = 1j
        l[7] = np.diag([1, 1, -2]) / np.sqrt(3.0)
        _GELL_MANN = l
    return _GELL_MANN


_PAIR_CACHE = {}


def su2_u1():
    """(SU2, U1): the 2-sphere, symmetric; h = span(i)."""
    if "su2_u1" not in _PAIR_CACHE:
        _PAIR_CACHE["su2_u1"] = _su2_pair("su2_u1", (0,), symmetric=True)
    return _PAIR_CACHE["su2_u1"]


def su2_group():
    """(SU2, {1}): the group itself as the target."""
    if "su2_group" not in _PAIR_CACHE:
        _PAIR_CACHE["su2_group"] = _su2_pair("su2_group", (), symmetric=False)
    return _PAIR_CACHE["su2_group"]


def su3_t2():
    """(SU3, T^2): the full flag manifold, non-symmetric; h = the Cartan torus."""
    if "su3_t2" not in _PAIR_CACHE:
        basis = 1j * _gell_mann() / np.sqrt(2.0)
        _PAIR_CACHE["su3_t2"] = HomogeneousPair(
            name="su3_t2",
            basis_matrices=basis,
            basis_h=(2, 7),  # lambda_3, lambda_8 directions
            symmetric=False,
            group_kind="matrix",
        )
    return _PAIR_CACHE["su3_t2"]


def pair_by_name(name):
    factories = {"su2_u1": su2_u1, "su2_group": su2_group, "su3_flag": su3_t2,
                 "su3_t2": su3_t2}
    if name not in factories:
        raise ValueError(f"unknown pair '{name}' (expected one of {sorted(factories)})")
    return factories[name]()


# ---------------------------------------------------------------------------
# spec operations
# ---------------------------------------------------------------------------

def ad_action(g, xi, pair=None):
    """Ad(g) xi = g xi g^-1.

    Quaternion g acts on imaginary coefficients directly; matrix groups
    need their pair for coefficient extraction.
    """
    g = np.asarray(g)
    if pair is not None and pair.group_kind == "matrix":
        return pair.ad(g, xi)
    _check_unit_quaternion(g)
    return qrotate(g, np.asarray(xi))


def _is_cp1_point(pair, x):
    return pair.group_kind == "quaternion" and np.asarray(x).shape[-1] == 3


def project_isotropy(pair, x, xi):
    """Split xi into (isotropic, coisotropic) parts at the coset point x.

    x is either a unit imaginary quaternion (CP1 fast path, closed forms
    par = (xi.phi) phi, perp = phi [xi, phi] / 2) or a group representative
    g with x = gH, in which case everything routes through Ad(g).
    """
    xi = np.asarray(xi)
    if _is_cp1_point(pair, x):
        phi = np.asarray(x)
        _check_unit_imaginary(phi)
        par = np.sum(xi * phi, axis=-1, keepdims=True) * phi
        perp = np.cross(phi, np.cross(xi, phi))  # = phi [xi, phi] / 2
        return par, perp
    g = np.asarray(x)
    down = pair.ad(_group_inverse(pair, g), xi)
    par = pair.ad(g, pair.proj_h(down))
    perp = pair.ad(g, pair.proj_perp(down))
    return par, perp


def coisotropy_form(pair, x, tangent):
    """The left-equivariant g-valued 1-form on G/H evaluated on one tangent.

    CP1 fast path: x a unit imaginary quaternion, tangent a vector of Im H
    perpendicular to x; the value is x * tangent / 2.  Generic path: x a
    group representative and tangent the Lie algebra vector xi generating
    the tangent xi.x; the value is the projection of xi onto Ad(g) h-perp.
    """
    if _is_cp1_point(pair, x):
        q = np.asarray(x)
        _check_unit_imaginary(q)
        eta = np.asarray(tangent)
        off = np.abs(np.sum(eta * q, axis=-1))
        scale = np.maximum(np.linalg.norm(eta, axis=-1), 1.0)
        if np.any(off > 1e-8 * scale):
            raise ValueError("tangent is not tangent to the sphere at x")
        return qim(qmul(qembed(q), qembed(eta))) * 0.5
    _, perp = project_isotropy(pair, x, tangent)
    return perp


def _check_unit_imaginary(q, tol=UNIT_TOL):
    q = np.asarray(q)
    bad = np.abs(np.linalg.norm(q, axis=-1) - 1.0)
    if np.any(bad > tol):
        raise ValueError(f"coset point is not unit to {tol:g}")


def _group_inverse(pair, g):
    if pair.group_kind == "quaternion":
        return qconj(g)
    return np.swapaxes(np.asarray(g), -1, -2).conj()


def cp1_point_of(g):
    """Coset point of a representative: q U1 -> q i q^-1 in Im H."""
    i = np.zeros(np.asarray(g).shape[:-1] + (3,))
    i[..., 0] = 1.0
    return qrotate(g, i)


def cp1_lift_of(point, tol=1e-12):
    """One representative g with g i g^-1 = point (shortest rotation from i)."""
    p = np.asarray(point, dtype=float)
    _check_unit_imaginary(p)
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


def _dot(u, v):
    out = u[0] * v[0]
    out += u[1] * v[1]
    out += u[2] * v[2]
    return out


def _cross(u, v):
    out = np.empty_like(u)
    for k, i, j in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(u[i], v[j], out=out[k])
        out[k] -= u[j] * v[i]
    return out


def _triangle(a, b, c, with_grads):
    """Signed area 2 atan2(a.(b x c), 1 + a.b + b.c + c.a) [, vertex gradients]."""
    bxc = _cross(b, c)
    n = _dot(a, bxc)
    d = 1.0 + _dot(a, b)
    d += _dot(b, c)
    d += _dot(c, a)
    area = 2.0 * np.arctan2(n, d)
    if not with_grads:
        return area
    denom = n * n + d * d
    cn, cd = 2.0 * d / denom, -2.0 * n / denom
    out = [area]
    for x, u, v in ((bxc, b, c), (_cross(c, a), a, c), (_cross(a, b), a, b)):
        x *= cn
        x += cd * (u + v)
        out.append(x)
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
    p = np.ascontiguousarray(p)
    for mu, nu in SLOTS2:
        p10 = np.roll(p, -1, axis=mu + 1)
        p11 = np.roll(p10, -1, axis=nu + 1)
        p01 = np.roll(p, -1, axis=nu + 1)
        if not with_grads:
            yield (mu, nu), _triangle(p, p10, p11, False) + _triangle(p, p11, p01, False)
            continue
        a1, g00, g10, g11 = _triangle(p, p10, p11, True)
        a2, g2a, g2b, g01 = _triangle(p, p11, p01, True)
        g00 += g2a
        g11 += g2b
        del p10, p11, p01, g2a, g2b  # free them before the caller scatters
        yield (mu, nu), a1 + a2, (g00, g10, g11, g01)


# ---------------------------------------------------------------------------
# exponentials / logarithms for matrix groups (near-identity regime)
# ---------------------------------------------------------------------------

def matrix_exp(X, terms=24):
    """exp of anti-Hermitian matrices by plain series; meant for |X| <~ 1."""
    X = np.asarray(X)
    out = np.broadcast_to(np.eye(X.shape[-1], dtype=complex), X.shape).copy()
    term = out.copy()
    for k in range(1, terms + 1):
        term = term @ X / k
        out = out + term
    return out


def matrix_log_unitary(U, terms=48, radius=0.9):
    """Principal log of unitary matrices near the identity (Mercator series)."""
    U = np.asarray(U)
    X = U - np.eye(U.shape[-1], dtype=complex)
    norms = np.linalg.norm(X, axis=(-2, -1))
    if np.any(norms > radius):
        raise RoughFieldError("field too rough for grid")
    out = np.zeros_like(X)
    term = np.broadcast_to(np.eye(U.shape[-1], dtype=complex), U.shape).copy()
    for k in range(1, terms + 1):
        term = term @ X
        out = out + ((-1) ** (k + 1) / k) * term
    # clean to the Lie algebra: anti-Hermitian, traceless
    out = 0.5 * (out - np.swapaxes(out, -1, -2).conj())
    tr = np.trace(out, axis1=-2, axis2=-1) / U.shape[-1]
    out = out - tr[..., None, None] * np.eye(U.shape[-1])
    return out
