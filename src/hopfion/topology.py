"""Hopf charges by three independent routes and their one rounded verdict.

Chern-Simons route: c * integral of tr(a ^ a ^ a) assembled from the
four-term isotropy split of the integrand; the normalization constant for
SU(N) in the defining representation is frozen from the degree-1
calibration run, c = -1 / (24 pi^2) with this package's orientation
conventions.

Whitehead route: the pullback of the normalized area form is realized as
the signed spherical area swept by each plaquette (quantized fluxes, so
the form is exactly closed cell by cell), dA = F is solved in Coulomb gauge
by lattice.coulomb_solve, exact at every Fourier mode of the
forward-difference complex, and the charge is the integral of A ^ F.

Linking route: preimage polylines of two regular values are extracted by
marching through lattice cells, and their linking number is the degree of
the Gauss map on the periodic grid of vertex pairs: the sum of its signed
plaquette areas over 4 pi, refused unless every plaquette area is below
2 pi in magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra as alg
from . import fields as fl
from .errors import DegeneratePreimageError, FluxObstructionError, HopfionError
from .lattice import Grid, LatticeField, SLOTS2, coulomb_solve, dot, empty_component_major, wedge

# Calibrated on the degree-1 ball ansatz and frozen; see README, conventions.
CHERN_SIMONS_SU_N = 1.0 / (24.0 * np.pi ** 2)

FLUX_TOL = 1e-6


@dataclass
class ChargeReport:
    """Charge values per route and their one verdict; cs_value is a one-entry array.

    Every route that ran must round to the same integer; reading the
    verdict of routes that round differently raises HopfionError.
    """

    cs_value: np.ndarray = None
    whitehead_value: float = None
    linking_value: int = None

    def _routes(self):
        """(name, value) of each route that ran; linking, if it ran, is exact."""
        cs = () if self.cs_value is None else self.cs_value
        routes = [("chern-simons", v) for v in cs]
        routes += [("whitehead", self.whitehead_value), ("linking", self.linking_value)]
        return [(name, v) for name, v in routes if v is not None]

    @property
    def rounded(self):
        """[q], the integer every route rounds to; [] when no route ran."""
        routes = self._routes()
        verdict = {np.rint(v) for _, v in routes}
        if len(verdict) > 1 or not np.all(np.isfinite(list(verdict))):
            raise HopfionError("the charge routes do not round to one integer: "
                               + ", ".join(f"{name} {v:.6g}" for name, v in routes))
        return [int(q) for q in verdict]

    @property
    def max_deviation(self):
        """Largest distance of a floating-point route from its rounded value."""
        return float(max((abs(v - np.rint(v)) for _, v in self._routes()), default=0.0))

    def as_dict(self):
        return {
            "cs": None if self.cs_value is None else list(map(float, self.cs_value)),
            "whitehead": self.whitehead_value,
            "linking": self.linking_value,
            "rounded": self.rounded,
            "deviation": self.max_deviation,
        }

    def __str__(self):
        verdict = f"{self.rounded}   max deviation {self.max_deviation:.3e}"
        cs = None if self.cs_value is None else np.array2string(self.cs_value, precision=6)
        wh = None if self.whitehead_value is None else f"{self.whitehead_value:.6f}"
        rows = (("chern-simons", cs), ("whitehead", wh), ("linking", self.linking_value),
                ("rounded", verdict))
        return "\n".join(f"{name + ':':<14}{text}" for name, text in rows if text is not None)


# slot permutations of the 3-form with their signs
_SLOT_PERMS = (((0, 1, 2), 1.0), ((1, 2, 0), 1.0), ((2, 0, 1), 1.0),
               ((0, 2, 1), -1.0), ((2, 1, 0), -1.0), ((1, 0, 2), -1.0))
# the six terms of x . (y x z) in the (a, b, c) order einsum sums them
_DET_TERMS = (((0, 1, 2), 1.0), ((0, 2, 1), -1.0), ((1, 0, 2), -1.0),
              ((1, 2, 0), 1.0), ((2, 0, 1), 1.0), ((2, 1, 0), -1.0))


_EPSILON = np.zeros((3, 3, 3))
for _abc, _sign in _DET_TERMS:
    _EPSILON[_abc] = _sign


def _epsilon_scale(T):
    """c when the trace tensor is c * epsilon (the su2 pairs), else None."""
    if T.shape != (3, 3, 3):
        return None
    c = T[0, 1, 2]
    return c if np.array_equal(T, c * _EPSILON) else None


def _epsilon_wedge(A, B, G):
    """Sum over slot permutations of sign * det[A_i, B_j, G_k], per site.

    Each determinant is summed term by term in einsum's order in one
    scratch buffer, so c times the result equals the einsum contraction
    with c * epsilon bit for bit.
    """
    out = np.zeros(A.shape[:3])
    det = np.empty_like(out)
    tmp = np.empty_like(out)
    for (i, j, k), sign in _SLOT_PERMS:
        (a, b, e), _ = _DET_TERMS[0]
        np.multiply(A[..., i, a], B[..., j, b], out=det)
        det *= G[..., k, e]
        for (a, b, e), term_sign in _DET_TERMS[1:]:
            np.multiply(A[..., i, a], B[..., j, b], out=tmp)
            tmp *= G[..., k, e]
            if term_sign > 0:
                det += tmp
            else:
                det -= tmp
        if sign > 0:
            out += det
        else:
            out -= det
    return out


def _trace_wedge_data(A, B, G, T):
    """tr(A ^ B ^ G) per site for 1-form data (..., 3, dim); leading axes free."""
    c = _epsilon_scale(T)
    if c is not None:
        out = _epsilon_wedge(A, B, G)
        out *= c
        return out
    out = np.zeros(A.shape[:-2])
    for (i, j, k), sign in _SLOT_PERMS:
        out += sign * np.einsum("abc,...a,...b,...c->...",
                                T, A[..., i, :], B[..., j, :], G[..., k, :])
    return out


# x-planes per slab of the Chern-Simons integrand
_CS_SLAB = 8


def chern_simons_charge(a):
    """c * integral tr(a ^ a ^ a) via the four-term isotropy split of a.

    The four traces (par^3, 3 par^2 perp, 3 par perp^2, perp^3) are formed
    separately and summed; for the CP1 reference the first two vanish
    identically and the split reduces to the helicity-type cross terms.
    The split and the traces are pointwise, so they run slab by slab along
    x into four full-grid trace arrays: the split parts never exist for
    the whole grid at once, and the sums equal the whole-grid ones.
    """
    T = a.pair.trace_tensor
    n = a.grid.n
    terms = np.empty((4, n, n, n))
    for lo in range(0, n, _CS_SLAB):
        x = slice(lo, lo + _CS_SLAB)
        par, perp = fl.split_data(a.a.data[x], a.phi, a.pair, x)
        terms[0, x] = _trace_wedge_data(par, par, par, T)
        np.multiply(3.0, _trace_wedge_data(par, par, perp, T), out=terms[1, x])
        np.multiply(3.0, _trace_wedge_data(par, perp, perp, T), out=terms[2, x])
        terms[3, x] = _trace_wedge_data(perp, perp, perp, T)
    total = sum(float(np.sum(t)) for t in terms) * a.grid.h ** 3
    return ChargeReport(cs_value=np.array([CHERN_SIMONS_SU_N * total]))


def _subsample(field):
    """The stride-2 subsample of a MapField or LiftField: spacing 2h, same period."""
    coarse = Grid(field.grid.n // 2, field.grid.length)
    return type(field)(coarse, field.pair, field.values[::2, ::2, ::2], renormalize=False)


def _richardson(fine, grid, coarse):
    """(4 fine - coarse()) / 3, the h^2 bias removed against the stride-2 subsample.

    coarse is called only when the grid can be halved; otherwise the plain
    fine value comes back.
    """
    if grid.n % 2 or grid.n < 8:
        return fine
    return (4.0 * fine - coarse()) / 3.0


def chern_simons_from_lift(u):
    """Chern-Simons charge of a lift, with h^2 Richardson elimination.

    The four-term split of u^-1 du is evaluated on the given grid and on
    its stride-2 subsample (the same field at spacing 2h); the leading
    quadratic quadrature bias cancels in (4 q_h - q_2h) / 3.  Falls back
    to the plain value when the grid cannot be halved.
    """
    def coarse():
        return chern_simons_charge(fl.pure_gauge_potential(_subsample(u))).cs_value

    fine = chern_simons_charge(fl.pure_gauge_potential(u)).cs_value
    return ChargeReport(cs_value=_richardson(fine, u.grid, coarse))


# ---------------------------------------------------------------------------
# Whitehead / helicity route
# ---------------------------------------------------------------------------

def area_flux_2form(psi):
    """psi^*(Omega / 4 pi) realized as signed plaquette areas over 4 pi.

    Each (mu, nu) slot holds the spherical area swept by the plaquette
    anchored at the site; summed over any closed lattice 2-cycle the total
    is the integer degree of the restriction, so the form is exactly
    closed wherever no lattice cube wraps the sphere.
    """
    if not psi.is_cp1:
        raise ValueError("area flux needs a CP1 map")
    # the plaquette area approximates h^2 times the 2-form component
    n = psi.grid.n
    out = empty_component_major((n, n, n, len(SLOTS2), 1))
    for slot, (_, area) in enumerate(alg.plaquette_areas(psi.values)):
        np.divide(area, 4.0 * np.pi * psi.grid.h ** 2, out=out[:, :, :, slot, 0])
    return LatticeField(psi.grid, 2, out)


def _check_fluxes(F):
    """Largest flux of the 2-form through any coordinate 2-torus (charge units)."""
    worst = 0.0
    h2 = F.grid.h ** 2
    for slot, (mu, nu) in enumerate(SLOTS2):
        per_slice = np.sum(F.slot(slot)[..., 0], axis=(mu, nu)) * h2
        worst = max(worst, float(np.max(np.abs(per_slice))))
    return worst


def _whitehead_plain(psi):
    F = area_flux_2form(psi)
    flux = _check_fluxes(F)
    if flux > FLUX_TOL:
        raise FluxObstructionError(
            f"Whitehead integral undefined: flux {flux:.3e} through a coordinate 2-torus means "
            f"a nonzero degree there or a grid (n = {psi.grid.n}) too coarse; refine the grid")
    A = coulomb_solve(F)
    AF = wedge(A, F, np.multiply)
    return float(np.sum(AF.data) * psi.grid.h ** 3)


def whitehead_charge(psi):
    """Integral of A ^ F with dA = F = psi^*(Omega / 4 pi).

    Requires zero flux through every coordinate 2-torus; raises
    FluxObstructionError otherwise.  As for the Chern-Simons route, the
    quadratic quadrature bias is removed against the stride-2 subsample
    unless the grid cannot be halved.
    """
    fine = _whitehead_plain(psi)
    try:
        return _richardson(fine, psi.grid, lambda: _whitehead_plain(_subsample(psi)))
    except FluxObstructionError:
        # the halved field is too rough to carry its fluxes; keep the
        # unextrapolated fine-grid value
        return fine


# ---------------------------------------------------------------------------
# preimage extraction and linking
# ---------------------------------------------------------------------------

def _orthonormal_frame(p):
    p = np.asarray(p, dtype=float)
    p = p / np.linalg.norm(p)
    trial = np.array([1.0, 0.0, 0.0])
    if abs(p[0]) > 0.9:
        trial = np.array([0.0, 1.0, 0.0])
    e1 = np.cross(p, trial)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(p, e1)
    return p, e1, e2


_FACE_AXES = {0: (1, 2), 1: (0, 2), 2: (0, 1)}
# parity of (mu, nu, rho) against (x, y, z) for rho the face normal
_FACE_PARITY = {0: 1.0, 1: -1.0, 2: 1.0}


def _face_crossings(psi, p):
    """All transversal crossings of the preimage of p through cell faces.

    Returns one (position (physical, may wrap), cube entered, cube exited)
    triple per crossing.  The frame components stay separate arrays and
    each face keeps two shifted copies of them at a time.
    """
    n = psi.grid.n
    p, e1, e2 = _orthonormal_frame(p)
    f = [dot(psi.values, e) for e in (e1, e2, p)]
    crossings = []
    for rho in range(3):
        mu, nu = _FACE_AXES[rho]
        c10 = [np.roll(x, -1, axis=mu) for x in f]
        c11 = [np.roll(x, -1, axis=nu) for x in c10]
        # two triangles per face, diagonal 00-11
        _collect_crossings(crossings, psi.grid, rho, _triangle_hits(f, c10, c11),
                           ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0)))
        del c10
        c01 = [np.roll(x, -1, axis=nu) for x in f]
        _collect_crossings(crossings, psi.grid, rho, _triangle_hits(f, c11, c01),
                           ((0.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
    return crossings


def _triangle_hits(A, B, C):
    """(ok, lb, lc, det): where the frame origin lies in the projected triangle ABC.

    A, B, C are the corner values as component lists; lb and lc are the
    barycentric weights of B and C, and ok also asks for the upper
    hemisphere (third component positive at the hit).
    """
    d1x, d1y = B[0] - A[0], B[1] - A[1]
    d2x, d2y = C[0] - A[0], C[1] - A[1]
    det = d1x * d2y - d1y * d2x
    with np.errstate(divide="ignore", invalid="ignore"):
        lb = (-A[0] * d2y + A[1] * d2x) / det
        lc = (-d1x * A[1] + d1y * A[0]) / det
        del d1x, d1y, d2x, d2y
        hemi = (1.0 - lb - lc) * A[2] + lb * B[2] + lc * C[2]
        ok = ((np.abs(det) > 1e-14) & (lb >= 0) & (lc >= 0)
              & (lb + lc <= 1) & (hemi > 0))
    return ok, lb, lc, det


def _collect_crossings(crossings, grid, rho, hits, corners):
    """Append the crossings of one triangle family of the rho faces."""
    ok, lb, lc, det = hits
    if not np.any(ok):
        return
    n = grid.n
    mu, nu = _FACE_AXES[rho]
    idx = np.argwhere(ok)
    lbv = lb[ok]
    lcv = lc[ok]
    up = np.sign(det[ok]) * _FACE_PARITY[rho] > 0
    (a0, a1), (b0, b1), (cc0, cc1) = corners
    pos = idx.astype(float)
    pos[:, mu] += (1 - lbv - lcv) * a0 + lbv * b0 + lcv * cc0
    pos[:, nu] += (1 - lbv - lcv) * a1 + lbv * b1 + lcv * cc1
    pos *= grid.h
    # the cube below the face: the curve leaves it when the sign is positive
    below = idx.copy()
    below[:, rho] -= 1
    below %= n
    for pp, face, under, s in zip(pos, idx.tolist(), below.tolist(), up.tolist()):
        if s:
            crossings.append((pp, tuple(face), tuple(under)))
        else:
            crossings.append((pp, tuple(under), tuple(face)))


def preimage_curves(psi, p):
    """Closed preimage polylines of the regular value p, unwrapped to R^3.

    Cell marching with a deterministic tie-break: degenerate configurations
    retry with the regular value rotated by a fixed 1e-7 offset, and the
    error after the last retry names the last attempt's reason.
    """
    if not psi.is_cp1:
        raise ValueError("preimage extraction needs a CP1 map")
    value = np.asarray(p, dtype=float)
    for attempt in range(4):
        crossings = _face_crossings(psi, value)
        if not crossings:
            raise DegeneratePreimageError(
                "no preimage of the regular value; choose a different one")
        try:
            return _walk_loops(crossings, psi.grid)
        except DegeneratePreimageError as exc:
            reason = exc
        tilt = alg.qexp(1e-7 * (attempt + 1) * np.array([1.0, 1.0, 1.0]))
        value = alg.qrotate(tilt, value)
    raise DegeneratePreimageError(
        f"preimage extraction failed at the regular value and 3 tilts of it: {reason}")


def _walk_loops(crossings, grid):
    """Connect face crossings into closed loops.

    A crossing continues with one that leaves the cube it enters: inside a
    multiply-traversed cube, the unused one nearest to the entry point
    (distances on the torus); a clean strand separation makes this
    unambiguous.  Each step takes an unused crossing or the start (not at
    the first step: no crossing leaves the cube it enters), so a walk
    closes or dead-ends.  If every walk closes, each cube's entering and
    leaving strands pair one to one: an unbalanced cube dead-ends a walk.
    """
    L = grid.length
    by_exit = {}
    for ci, (_, _, exit_) in enumerate(crossings):
        by_exit.setdefault(exit_, []).append(ci)
    used = set()
    loops = []

    def torus_dist(p, q):
        delta = np.abs(p - q)
        return float(np.linalg.norm(np.minimum(delta, L - delta)))

    for start in range(len(crossings)):
        if start in used:
            continue
        loop = []
        ci = start
        while not loop or ci != start:
            used.add(ci)
            pos, enter, _ = crossings[ci]
            loop.append(pos)
            candidates = [c for c in by_exit.get(enter, ()) if c not in used or c == start]
            if not candidates:
                raise DegeneratePreimageError("preimage walk dead-ended")
            ci = min(candidates, key=lambda c: (torus_dist(crossings[c][0], pos), c))
        # unwrap the closed loop: undo each jump of a whole period
        pts = np.array(loop + loop[:1], dtype=float)
        pts[1:] -= L * np.cumsum(np.rint(np.diff(pts, axis=0) / L), axis=0)
        if np.any(pts[-1] != pts[0]):
            raise DegeneratePreimageError(
                "preimage loop winds the torus; linking in R^3 undefined")
        loops.append(pts)
    return loops


# the two regular values whose preimages linking_charge links
LINK_P, LINK_Q = (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)


def gauss_linking(curve1, curve2):
    """Linking number of two closed polylines (last vertex = first) as a lattice degree.

    The Gauss map of vertex pairs (i, j), the unit vector from curve1[i] to
    curve2[j], lives on a periodic grid; its degree is the sum of the signed
    plaquette areas over 4 pi (Berg & Luscher 1981).  A segment pair
    subtends a solid angle below 2 pi, and its plaquette's area differs from
    it by a multiple of 4 pi, so |area| < 2 pi everywhere proves the sum
    exact; otherwise (touching curves give NaN) DegeneratePreimageError.
    """
    g = curve2[None, :-1] - curve1[:-1, None]
    with np.errstate(invalid="ignore"):
        g /= np.linalg.norm(g, axis=-1, keepdims=True)
    _, area = next(alg.plaquette_areas(g[:, :, None]))
    if not np.all(np.abs(area) < 2.0 * np.pi):
        raise DegeneratePreimageError("preimage curves touch; linking number undefined")
    return int(np.rint(np.sum(area) / (4.0 * np.pi)))


def linking_charge(psi):
    """Hopf charge as the linking number of the preimages of LINK_P and LINK_Q."""
    curves_p = preimage_curves(psi, LINK_P)
    curves_q = preimage_curves(psi, LINK_Q)
    total = 0
    for cp in curves_p:
        for cq in curves_q:
            total += gauss_linking(cp, cq)
    return total
