"""Hopf charges by three independent routes, plus sector bookkeeping.

Chern-Simons route: c * integral of tr(a ^ a ^ a) assembled from the
four-term isotropy split of the integrand; the normalization constant for
SU(N) in the defining representation is frozen from the degree-1
calibration run, c = -1 / (24 pi^2) with this package's orientation
conventions.

Whitehead route: the pullback of the normalized area form is realized as
the signed spherical area swept by each plaquette (quantized fluxes, so
the form is exactly closed cell by cell), dA = F is solved spectrally with
the exact symbol of the forward-difference complex, and the charge is the
integral of A ^ F.

Linking route: preimage polylines of two regular values are extracted by
marching through lattice cells and their Gauss linking number is counted
from signed crossings in a generic plane projection.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import algebra as alg
from . import fields as fl
from .errors import DegeneratePreimageError, FluxObstructionError
from .lattice import Grid, LatticeField, SLOTS2, wedge

# Calibrated on the degree-1 ball ansatz and frozen; see README, conventions.
CHERN_SIMONS_SU_N = 1.0 / (24.0 * np.pi ** 2)

FLUX_TOL = 1e-6


@dataclass
class ChargeReport:
    """Charge values per route; cs_value is a one-entry array."""

    cs_value: np.ndarray = None
    whitehead_value: float = None
    linking_value: int = None

    @property
    def rounded(self):
        if self.cs_value is not None:
            return np.rint(self.cs_value).astype(int)
        if self.whitehead_value is not None:
            return np.array([int(np.rint(self.whitehead_value))])
        return np.array([], dtype=int)

    @property
    def max_deviation(self):
        devs = []
        if self.cs_value is not None:
            devs.extend(np.abs(self.cs_value - np.rint(self.cs_value)))
        if self.whitehead_value is not None:
            devs.append(abs(self.whitehead_value - round(self.whitehead_value)))
        return float(max(devs)) if devs else 0.0

    def to_json(self):
        return json.dumps({
            "cs": None if self.cs_value is None else list(map(float, self.cs_value)),
            "whitehead": self.whitehead_value,
            "linking": self.linking_value,
            "rounded": list(map(int, self.rounded)),
            "deviation": self.max_deviation,
        })


@dataclass
class SectorLabel:
    reference_id: str
    charge: tuple
    modulus_note: str


# slot permutations of the 3-form with their signs
_SLOT_PERMS = (((0, 1, 2), 1.0), ((1, 2, 0), 1.0), ((2, 0, 1), 1.0),
               ((0, 2, 1), -1.0), ((2, 1, 0), -1.0), ((1, 0, 2), -1.0))
# the six terms of x . (y x z) in the (a, b, c) order einsum sums them
_DET_TERMS = (((0, 1, 2), 1.0), ((0, 2, 1), -1.0), ((1, 0, 2), -1.0),
              ((1, 2, 0), 1.0), ((2, 0, 1), 1.0), ((2, 1, 0), -1.0))


def _epsilon_scale(T):
    """c when the trace tensor is c * epsilon (the su2 pairs), else None."""
    if T.shape != (3, 3, 3):
        return None
    epsilon = np.zeros((3, 3, 3))
    for abc, sign in _DET_TERMS:
        epsilon[abc] = sign
    c = T[0, 1, 2]
    return c if np.array_equal(T, c * epsilon) else None


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


def triple_trace_wedge(alpha, beta, gamma, trace_tensor):
    """tr(alpha ^ beta ^ gamma) as a scalar 3-form, trace via the pair tensor.

    A tensor c * epsilon takes the determinant kernel; any other tensor
    (su3_t2) the generic einsum contraction.
    """
    out = _trace_wedge_data(alpha.data, beta.data, gamma.data, trace_tensor)
    return LatticeField(alpha.grid, 3, out[..., None, None])


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
        par, perp = _split_slab(a, x)
        terms[0, x] = _trace_wedge_data(par, par, par, T)
        np.multiply(3.0, _trace_wedge_data(par, par, perp, T), out=terms[1, x])
        np.multiply(3.0, _trace_wedge_data(par, perp, perp, T), out=terms[2, x])
        terms[3, x] = _trace_wedge_data(perp, perp, perp, T)
    total = sum(float(np.sum(t)) for t in terms) * a.grid.h ** 3
    return ChargeReport(cs_value=np.array([CHERN_SIMONS_SU_N * total]))


def _split_slab(a, x):
    """(par, perp) data of the potential a on the x-planes x, as split_form makes them."""
    data = a.a.data[x]
    if a.pair.dim_h == 0:
        return np.zeros_like(data), data
    if a.phi is None:
        raise ValueError("isotropy split needs a reference map")
    return alg.project_isotropy(a.pair, a.phi.values[x, :, :, None], data)


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
    out = np.empty((n, n, n, len(SLOTS2), 1))
    for slot, (_, area) in enumerate(alg.plaquette_areas(np.moveaxis(psi.values, -1, 0))):
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


def solve_vector_potential(F):
    """A with dA = F, Coulomb-type, via the exact forward-difference symbol.

    Exact at every Fourier mode where F is closed; the zero modes of A are
    set to zero.
    """
    grid = F.grid
    n, h = grid.n, grid.h
    k = np.fft.fftfreq(n, d=1.0 / n)
    sym = (np.exp(2j * np.pi * k / n) - 1.0) / h
    s = [sym.reshape([-1 if ax == m else 1 for ax in range(3)]) for m in range(3)]
    S = sum(np.abs(sm) ** 2 for sm in s)
    S[(0,) * 3] = 1.0  # zero mode handled separately

    # F_{nu mu} = -F_{mu nu}: one transform per slot, the sign applied at use
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
    return LatticeField(grid, 1, out)


def _whitehead_plain(psi, return_fields=False):
    F = area_flux_2form(psi)
    flux = _check_fluxes(F)
    if flux > FLUX_TOL:
        raise FluxObstructionError(
            f"Whitehead integral undefined: flux {flux:.3e} through a coordinate 2-torus means "
            f"a nonzero degree there or a grid (n = {psi.grid.n}) too coarse; refine the grid")
    A = solve_vector_potential(F)
    AF = wedge(A, F, np.multiply)
    value = float(np.sum(AF.data) * psi.grid.h ** 3)
    if return_fields:
        return value, A, F
    return value


def whitehead_charge(psi, return_fields=False):
    """Integral of A ^ F with dA = F = psi^*(Omega / 4 pi).

    Requires zero flux through every coordinate 2-torus; raises
    FluxObstructionError otherwise.  As for the Chern-Simons route, the
    quadratic quadrature bias is removed against the stride-2 subsample
    unless the grid cannot be halved.
    """
    if return_fields:
        return _whitehead_plain(psi, return_fields=True)
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
    f = [psi.values @ e1, psi.values @ e2, psi.values @ p]
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
    retry with the regular value rotated by a fixed 1e-7 offset.
    """
    if not psi.is_cp1:
        raise ValueError("preimage extraction needs a CP1 map")
    value = np.asarray(p, dtype=float)
    for attempt in range(4):
        crossings = _face_crossings(psi, value)
        if not crossings:
            raise DegeneratePreimageError(
                "no preimage of the regular value; choose a different one")
        by_entry = {}
        by_exit = {}
        for ci, (_, enter, exit_) in enumerate(crossings):
            by_entry.setdefault(enter, []).append(ci)
            by_exit.setdefault(exit_, []).append(ci)
        if all(len(by_entry.get(cube, ())) == len(by_exit.get(cube, ()))
               for cube in set(by_entry) | set(by_exit)):
            try:
                return _walk_loops(crossings, by_exit, psi.grid)
            except DegeneratePreimageError:
                pass
        tilt = alg.qexp(1e-7 * (attempt + 1) * np.array([1.0, 1.0, 1.0]))
        value = alg.qrotate(tilt, value)
    raise DegeneratePreimageError(
        "preimage extraction degenerate; choose a different regular value")


def _walk_loops(crossings, by_exit, grid):
    """Connect face crossings into closed loops.

    Inside a multiply-traversed cube the exit continuing a strand is taken
    to be the unused one nearest to the entry point (distances on the
    torus); a clean strand separation makes this unambiguous.
    """
    L = grid.length
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
        guard = 0
        while True:
            used.add(ci)
            pos, enter, _ = crossings[ci]
            loop.append(pos)
            candidates = [c for c in by_exit.get(enter, ()) if c not in used]
            if start in by_exit.get(enter, ()) and len(loop) > 1:
                candidates.append(start)
            if not candidates:
                raise DegeneratePreimageError("preimage walk dead-ended")
            ci = min(candidates, key=lambda c: (torus_dist(crossings[c][0], pos), c))
            guard += 1
            if ci == start or guard > len(crossings) + 1:
                break
        if ci != start:
            raise DegeneratePreimageError("preimage walk failed to close")
        pts = _unwrap(loop, L)
        if np.any(np.rint((pts[0] - pts[-1]) / L) != 0):
            raise DegeneratePreimageError(
                "preimage loop winds the torus; linking in R^3 undefined")
        pts.append(pts[0])
        loops.append(np.array(pts))
    return loops


def _unwrap(points, L):
    out = [np.asarray(points[0], dtype=float)]
    for q in points[1:]:
        q = np.asarray(q, dtype=float)
        prev = out[-1]
        shift = np.rint((q - prev) / L)
        out.append(q - shift * L)
    return out


def _project_frame(attempt):
    """A deterministic family of generic projection frames."""
    rng = np.random.default_rng(1234 + attempt)
    q = alg.qnormalize(rng.standard_normal(4))
    basis = np.eye(3)
    return np.stack([alg.qrotate(q, basis[i]) for i in range(3)])


def _crossing_number(curve1, curve2, frame):
    """Sum of signs over crossings where curve1 passes over curve2.

    Returns None when the projection is degenerate for these polylines.
    """
    p1 = curve1 @ frame.T
    p2 = curve2 @ frame.T
    a = p1[:-1]
    b = p1[1:]
    c = p2[:-1]
    e = p2[1:]
    total = 0
    for i in range(len(a)):
        d1 = b[i, :2] - a[i, :2]
        r = c[:, :2] - a[i, :2]
        d2 = e[:, :2] - c[:, :2]
        det = d1[0] * d2[:, 1] - d1[1] * d2[:, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (r[:, 0] * d2[:, 1] - r[:, 1] * d2[:, 0]) / det
            s = (r[:, 0] * d1[1] - r[:, 1] * d1[0]) / det
        cand = np.nonzero((np.abs(det) > 1e-12) & (t > 0) & (t < 1) & (s > 0) & (s < 1))[0]
        for j in cand:
            if min(t[j], 1 - t[j], s[j], 1 - s[j]) < 1e-9:
                return None  # endpoint graze: ask for another frame
            z1 = p1[i, 2] + t[j] * (p1[i + 1, 2] - p1[i, 2])
            z2 = p2[j, 2] + s[j] * (p2[j + 1, 2] - p2[j, 2])
            if abs(z1 - z2) < 1e-12:
                return None
            if z1 > z2:
                total += 1 if det[j] > 0 else -1
    return total


def gauss_linking(curve1, curve2):
    """Gauss linking number of two closed polylines by signed crossing count."""
    for attempt in range(8):
        frame = _project_frame(attempt)
        val = _crossing_number(curve1, curve2, frame)
        if val is not None:
            return int(val)
    raise DegeneratePreimageError("no generic projection found for linking count")


def linking_charge(psi, p=(0.0, 1.0, 0.0), q=(0.0, 0.0, 1.0)):
    """Hopf charge as the linking number of two preimage families."""
    curves_p = preimage_curves(psi, p)
    curves_q = preimage_curves(psi, q)
    total = 0
    for cp in curves_p:
        for cq in curves_q:
            total += gauss_linking(cp, cq)
    return int(total)


# ---------------------------------------------------------------------------
# sectors
# ---------------------------------------------------------------------------

def assign_sector(psi, phi, u, reference_id="reference"):
    """Certify psi = u . phi and label its sector by the charge of the lift."""
    moved = fl.act(u, phi)
    defect = float(np.max(np.linalg.norm(moved.values - psi.values, axis=-1)))
    if defect > 1e-10:
        raise ValueError(f"factorization residual {defect:.3e} exceeds 1e-10")
    a = fl.pure_gauge_potential(u, phi)
    report = chern_simons_charge(a)
    note = ("charge is reported as raw integers; equality mod the stabilizer "
            "subgroup O_phi is decided only for constant references, where "
            "O_phi is trivial")
    return SectorLabel(reference_id=reference_id,
                       charge=tuple(int(v) for v in report.rounded),
                       modulus_note=note)
