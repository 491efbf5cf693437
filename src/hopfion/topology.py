"""Hopf charges by three independent routes and their one rounded verdict.

Chern-Simons route: c * integral of tr(a ^ a ^ a) for the flat connection
a = u^-1 du of a lift, taken pointwise as -3 s <a_x, [a_y, a_z]> with s the
Frobenius scale of the pair's basis; it depends on G alone, not on H or a
reference map.  The normalization constant for SU(N) in the defining
representation is frozen from the degree-1 calibration run,
c = +1 / (24 pi^2) with this package's orientation conventions.

Whitehead route: the pullback of the normalized area form is realized as
the signed spherical area swept by each plaquette (quantized fluxes, so
the form is exactly closed cell by cell), dA = F is solved in Coulomb gauge
by lattice.coulomb_solve, exact at every Fourier mode of the
forward-difference complex, and the charge is lattice.integrate_3form of A ^ F.

Linking route: preimage polylines of two regular values are extracted by
marching through lattice cells, and the linking number of two loops in R^3
is the degree of the Gauss map on the periodic grid of vertex pairs: the
sum of its signed plaquette areas over 4 pi, refused unless every triangle
is below pi in magnitude and no plaquette diagonal joins antipodal
directions.  Each loop is unwrapped from its own first crossing, so the
torus linking number of two loops is the image sum over the lattice
translates of one whose bounding box meets the other's.  The face
crossings are watertight (Woop, Benthin & Wald, JCGT 2, 2013): each
lattice edge carries one orientation sign, read negated by the triangle
that runs it backwards, and exact zeros are broken by Simulation of
Simplicity (Edelsbrunner & Muecke, ACM TOG 9, 1990), so a preimage through
an edge or a vertex is counted once and the regular value is never tilted.
A map that misses a regular value links nothing: 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import algebra as alg
from . import fields as fl
from .errors import DegeneratePreimageError, FluxObstructionError, HopfionError
from .lattice import (Grid, LatticeField, SLOTS2, coulomb_solve, dot, empty_component_major,
                      integrate_3form, spacing_fits, wedge)

# Calibrated on the degree-1 ball ansatz and frozen; see README, conventions.
CHERN_SIMONS_SU_N = 1.0 / (24.0 * np.pi ** 2)

FLUX_TOL = 1e-6


@dataclass
class ChargeReport:
    """Charge values per route and their one verdict.

    Every route that ran must round to the same integer; reading the
    verdict of routes that round differently raises HopfionError.
    """

    cs_value: float = None
    whitehead_value: float = None
    linking_value: int = None

    def _routes(self):
        """(name, value) of each route that ran; linking, if it ran, is exact."""
        routes = (("chern-simons", self.cs_value), ("whitehead", self.whitehead_value),
                  ("linking", self.linking_value))
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
            "cs": None if self.cs_value is None else [self.cs_value],
            "whitehead": self.whitehead_value,
            "linking": self.linking_value,
            "rounded": self.rounded,
            "deviation": self.max_deviation,
        }

    def __str__(self):
        verdict = f"{self.rounded}   max deviation {self.max_deviation:.3e}"
        # numpy's shortest form to 6 digits, bracketed like the JSON's "cs" list
        cs = None if self.cs_value is None else np.array2string(np.array([self.cs_value]),
                                                                precision=6)
        wh = None if self.whitehead_value is None else f"{self.whitehead_value:.6f}"
        rows = (("chern-simons", cs), ("whitehead", wh), ("linking", self.linking_value),
                ("rounded", verdict))
        return "\n".join(f"{name + ':':<14}{text}" for name, text in rows if text is not None)


def triple_trace_wedge(data, pair):
    """tr(a ^ a ^ a) per site of g-valued 1-form data (n, n, n, 3, dim_g).

    The trace is cyclic, so the six slot permutations sum to
    3 tr(a_x [a_y, a_z]); with tr(e_a e_b) = -s delta_ab for the pair's
    Frobenius scale s, that is -3 s <a_x, [a_y, a_z]>.
    """
    out = dot(data[:, :, :, 0], pair.bracket(data[:, :, :, 1], data[:, :, :, 2]))
    out *= -3.0 * pair.frob_scale
    return out


def chern_simons_charge(a):
    """c * integral tr(a ^ a ^ a) of a potential, read from a.a.data alone.

    The integrand depends on G only: neither the reference map nor the
    isotropy split enters, and the four-term split (par^3, 3 par^2 perp,
    3 par perp^2, perp^3) resums to it pointwise.
    """
    return _chern_simons(a.a, a.pair)


def _chern_simons(form, pair):
    """c * integral tr(w ^ w ^ w) of a g-valued 1-form w of the pair."""
    total = float(np.sum(triple_trace_wedge(form.data, pair))) * form.grid.h ** 3
    return CHERN_SIMONS_SU_N * total


def _subsample(field):
    """The stride-2 subsample of a MapField or LiftField: spacing 2h, same period."""
    coarse = Grid(field.grid.n // 2, field.grid.length)
    return type(field)(coarse, field.pair, field.values[::2, ::2, ::2], renormalize=False)


def _extrapolated(route, field):
    """(4 q_h - q_2h) / 3 of q = route: the h^2 bias removed against the stride-2 subsample.

    The plain fine value q_h comes back when the grid cannot be halved (n
    odd or below 8, or 2h outside Grid's spacing rule) or the subsample is
    flux-obstructed; any other error of the subsample ends the call
    (Richardson & Gaunt 1927).
    """
    fine = route(field)
    n = field.grid.n
    if n % 2 or n < 8 or not spacing_fits(n // 2, field.grid.length):
        return fine
    try:
        coarse = route(_subsample(field))
    except FluxObstructionError:
        return fine
    return (4.0 * fine - coarse) / 3.0


def _chern_simons_plain(u):
    return _chern_simons(fl.maurer_cartan_form(u), u.pair)


def chern_simons_from_lift(u):
    """Chern-Simons charge of a lift, the integral of u^-1 du, _extrapolated; a
    subsample whose links reach qlog's cut raises RoughFieldError."""
    return _extrapolated(_chern_simons_plain, u)


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
    for slot, (_, area, _) in enumerate(alg.plaquette_areas(psi.values)):
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
    return integrate_3form(wedge(coulomb_solve(F), F, np.multiply))


def whitehead_charge(psi):
    """Integral of A ^ F with dA = F = psi^*(Omega / 4 pi), _extrapolated.

    Requires zero flux through every coordinate 2-torus; raises
    FluxObstructionError otherwise.  A flux-obstructed stride-2 subsample
    leaves the plain fine value.
    """
    return _extrapolated(_whitehead_plain, psi)


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


def _edge_sign(x, y):
    """Sign of o(x, y) = x1 y2 - x2 y1 on each lattice edge x -> y, as int8 +-1.

    x and y hold the frame components (f1, f2, ...) at the edge's two ends;
    the products commute and a difference negates exactly, so the reversed
    edge reads the negated sign.  An exact zero takes the sign the origin
    gives when moved by (eps, eps^2): sign(x2 - y2), then sign(y1 - x1).
    Corners that coincide in projection read +1; a triangle with two such
    corners never has three equal signs.
    """
    o = x[0] * y[1]
    o -= x[1] * y[0]
    np.copyto(o, x[1] - y[1], where=o == 0)
    np.copyto(o, y[0] - x[0], where=o == 0)
    np.copyto(o, 1.0, where=o == 0)
    return np.sign(o).astype(np.int8)


def _face_crossings(psi, p):
    """All crossings of the preimage of p through cell faces, each counted once.

    Returns one (position (physical, may wrap), cube entered, cube exited)
    triple per crossing.  Each face splits into the plaquette kernel's two
    triangles (diagonal 00-11).  Each axis edge and face diagonal carries
    one _edge_sign, which a triangle negates where it runs the edge
    backwards; a triangle holds +-p exactly when its three signs agree.
    """
    p, e1, e2 = _orthonormal_frame(p)
    f = [dot(psi.values, e) for e in (e1, e2, p)]
    axis = [_edge_sign(f, [np.roll(x, -1, axis=mu) for x in f[:2]]) for mu in range(3)]
    unit = np.eye(3, dtype=int)
    crossings = []
    for rho, (mu, nu) in _FACE_AXES.items():
        diag = _edge_sign(f, [np.roll(np.roll(x, -1, axis=mu), -1, axis=nu) for x in f[:2]])
        # (00, 10, 11) runs 00->10 and 10->11 forward and 11->00 backward
        a, b = axis[mu], np.roll(axis[nu], -1, axis=mu)
        _collect_crossings(crossings, psi.grid, rho, f, a, (a == b) & (a == -diag),
                           unit[mu], unit[mu] + unit[nu])
        # (00, 11, 01) runs 00->11 forward and 11->01 and 01->00 backward
        a, b = np.roll(axis[mu], -1, axis=nu), axis[nu]
        _collect_crossings(crossings, psi.grid, rho, f, diag, (diag == -a) & (diag == -b),
                           unit[mu] + unit[nu], unit[nu])
    return crossings


def _collect_crossings(crossings, grid, rho, f, sign, hit, b, c):
    """Append the crossings of p through the rho-face triangles (00, b, c) that hold +-p.

    At the hits only, the barycentric weights of the corners b and c give
    the hemisphere (third frame component positive) and the position, 1/3
    each where the projected triangle is degenerate; the common edge sign
    gives the orientation.
    """
    idx = np.argwhere(hit)
    A, B, C = ([x[tuple(((idx + corner) % grid.n).T)] for x in f] for corner in (0, b, c))
    d1x, d1y = B[0] - A[0], B[1] - A[1]
    d2x, d2y = C[0] - A[0], C[1] - A[1]
    det = d1x * d2y - d1y * d2x
    # a triangle flat in projection (C - A rounds to -A beside a corner at the
    # vacuum) has no barycentric solve: its crossing takes the corners' mean
    lb, lc = (np.divide(num, det, out=np.full_like(det, 1.0 / 3.0), where=det != 0)
              for num in (-A[0] * d2y + A[1] * d2x, -d1x * A[1] + d1y * A[0]))
    upper = (1.0 - lb - lc) * A[2] + lb * B[2] + lc * C[2] > 0
    idx, lb, lc = idx[upper], lb[upper, None], lc[upper, None]
    # the weighted offset is summed before the site index is added, as the
    # per-triangle reference in tests/oracles.py sums it, bit for bit
    pos = (idx + (lb * b + lc * c)) * grid.h
    # (-1)^rho is the parity of (mu, nu, rho) against (x, y, z)
    up = sign[tuple(idx.T)] * (-1) ** rho > 0
    # the cube below the face: the curve leaves it when the sign is positive
    below = (idx - np.eye(3, dtype=int)[rho]) % grid.n
    for pp, face, under, s in zip(pos, map(tuple, idx.tolist()), map(tuple, below.tolist()),
                                  up.tolist()):
        crossings.append((pp, face, under) if s else (pp, under, face))


def preimage_curves(psi, p):
    """Closed preimage polylines of the regular value p, unwrapped to R^3.

    One extraction at p itself: the edge signs of _face_crossings count a
    preimage through a lattice edge or vertex once, with exact zeros broken
    by Simulation of Simplicity, so no tilt of p is needed.  A map that
    misses p has the empty preimage, [].
    """
    if not psi.is_cp1:
        raise ValueError("preimage extraction needs a CP1 map")
    return _walk_loops(_face_crossings(psi, p), psi.grid)


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
                raise DegeneratePreimageError(f"preimage walk dead-ended in cube {enter} at "
                                              f"n = {grid.n}; refine the grid")
            ci = min(candidates, key=lambda c: (torus_dist(crossings[c][0], pos), c))
        # unwrap the closed loop: undo each jump of a whole period
        pts = np.array(loop + loop[:1], dtype=float)
        pts[1:] -= L * np.cumsum(np.rint(np.diff(pts, axis=0) / L), axis=0)
        if np.any(pts[-1] != pts[0]):
            raise DegeneratePreimageError(
                f"preimage loop winds the torus at n = {grid.n}; linking in R^3 undefined")
        loops.append(pts)
    return loops


# the two regular values whose preimages linking_charge links
LINK_P, LINK_Q = (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)


def gauss_linking(curve1, curve2):
    """Linking number of two closed polylines (last vertex = first) as a lattice degree.

    The Gauss map of vertex pairs (i, j), the unit vector from curve1[i] to
    curve2[j], lives on a periodic grid; its degree is the sum of the signed
    plaquette areas over 4 pi (Berg & Luscher 1981).  Two segments that
    cross put their plaquette's corners on one great circle, where the
    areas are rounding: a crossing that cuts both segments in one ratio
    makes a diagonal's corners antipodal, any other makes one triangle a
    hemisphere of +-2 pi.  So the sum is taken only when both diagonals of
    every plaquette stay 1e-12 away from antipodal (in 1 + cos) and every
    triangle is below pi; otherwise (touching curves give NaN)
    DegeneratePreimageError.  The preimage curves of the n = 24-48 hopf
    ansatz, charges 1 and 2, keep 1 + cos >= 1.36 and triangles <= 0.29.
    """
    g = curve2[None, :-1] - curve1[:-1, None]
    with np.errstate(invalid="ignore"):
        g /= np.linalg.norm(g, axis=-1, keepdims=True)
    _, area, peak = next(alg.plaquette_areas(g[:, :, None]))
    g10, g01 = np.roll(g, -1, axis=0), np.roll(g, -1, axis=1)
    cos_diagonal = min(float(np.min(dot(g, np.roll(g10, -1, axis=1)))), float(np.min(dot(g10, g01))))
    if not (peak < np.pi and 1.0 + cos_diagonal > 1e-12):
        raise DegeneratePreimageError("preimage curves touch or cross; linking number undefined")
    return int(np.rint(np.sum(area) / (4.0 * np.pi)))


def linking_charge(psi):
    """Hopf charge as the torus linking number of the preimages of LINK_P and LINK_Q.

    Each preimage loop is unwrapped to R^3 from its own first crossing, so
    two loops can come out a period apart.  The torus linking number of
    null-homologous loops cp and cq is the sum of gauss_linking(cp, cq + L k)
    over the lattice vectors k; a translate whose bounding box misses cp's
    links it zero times, so only the k whose boxes meet cp's are taken.
    """
    L = psi.grid.length
    curves_p = preimage_curves(psi, LINK_P)
    curves_q = preimage_curves(psi, LINK_Q)
    total = 0
    for cp in curves_p:
        for cq in curves_q:
            lo = np.ceil((cp.min(axis=0) - cq.max(axis=0)) / L).astype(int)
            hi = np.floor((cp.max(axis=0) - cq.min(axis=0)) / L).astype(int)
            for k in itertools.product(*map(range, lo, hi + 1)):
                total += gauss_linking(cp, cq + L * np.array(k))
    return total
