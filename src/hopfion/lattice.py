"""Discrete vector-valued differential forms on a periodic cubic grid.

The flat 3-torus of period L is sampled at n^3 sites, x_i = i h with
h = L/n.  All form degrees are collocated at sites; the exterior
derivative uses forward differences with periodic wrap, which keeps
d(d(f)) at roundoff and makes every integral of an exact form telescope
to zero.  2-form slots are ordered (xy, xz, yz) and carry the single
sum-over-i<j convention, so for Lie-algebra-valued 1-forms
(a ^ a)_{ij} = [a_i, a_j].

cross and dot are the package's one last-axis cross and dot product of
3-vectors, in the operation order of np.cross and np.sum(a * b, axis=-1),
whose rounding they keep; every whole-grid cross or dot product calls them
but algebra.qmul's, which are written into its output slot by slot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SLOT_COUNT = (1, 3, 3, 1)
SLOTS2 = ((0, 1), (0, 2), (1, 2))


@dataclass(frozen=True)
class Grid:
    """Periodic cubic grid: n sites per axis over physical period length."""

    n: int
    length: float = 2.0 * np.pi

    def __post_init__(self):
        if self.n < 4:
            raise ValueError("grid needs at least 4 sites per axis")
        if not (np.isfinite(self.length) and self.length > 0):
            raise ValueError("period must be positive and finite")

    @property
    def h(self):
        return self.length / self.n

    def axis_coords(self):
        return np.arange(self.n) * self.h

    def site_coords(self):
        """Array (n, n, n, 3) of site positions."""
        c = self.axis_coords()
        x, y, z = np.meshgrid(c, c, c, indexing="ij")
        return np.stack([x, y, z], axis=-1)


class LatticeField:
    """A degree-k form with value dimension v: data shape (n, n, n, slots, v).

    Data buffers are frozen after construction; operations build new fields.
    """

    __slots__ = ("grid", "degree", "data")

    def __init__(self, grid, degree, data):
        data = np.asarray(data)
        n = grid.n
        if degree not in (0, 1, 2, 3):
            raise ValueError("form degree must be 0..3")
        expected = (n, n, n, SLOT_COUNT[degree])
        if data.shape[:4] != expected:
            raise ValueError(f"data shape {data.shape} does not match {expected} + (v,)")
        if data.ndim != 5:
            raise ValueError("data must have shape (n, n, n, slots, v)")
        if not np.all(np.isfinite(data)):
            raise ValueError("field data contains NaN or Inf")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "data", data)
        if data.base is None and data.flags.owndata:
            data.flags.writeable = False

    def __setattr__(self, *a):
        raise AttributeError("LatticeField is immutable")

    @property
    def vdim(self):
        return self.data.shape[-1]

    @classmethod
    def zeros(cls, grid, degree, vdim):
        n = grid.n
        return cls(grid, degree, np.zeros((n, n, n, SLOT_COUNT[degree], vdim)))

    @classmethod
    def from_slots(cls, grid, degree, slots):
        """Build from a list of per-slot arrays shaped (n, n, n, v)."""
        return cls(grid, degree, np.stack(slots, axis=3))

    def slot(self, index):
        return self.data[:, :, :, index, :]

    def norm2_density(self):
        """Pointwise squared norm, summed over slots and components.

        One x-plane at a time, so the squares never fill a second field.
        """
        out = np.empty(self.data.shape[:3], dtype=self.data.dtype)
        for x, plane in enumerate(self.data):
            np.sum(plane * plane, axis=(2, 3), out=out[x])
        return out

    # small linear algebra of fields
    def __add__(self, other):
        self._compat(other)
        return LatticeField(self.grid, self.degree, self.data + other.data)

    def __sub__(self, other):
        self._compat(other)
        return LatticeField(self.grid, self.degree, self.data - other.data)

    def __mul__(self, scalar):
        return LatticeField(self.grid, self.degree, self.data * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return LatticeField(self.grid, self.degree, -self.data)

    def _compat(self, other):
        if self.grid != other.grid or self.degree != other.degree or self.vdim != other.vdim:
            raise ValueError("incompatible fields")


def forward_diff(arr, axis, h):
    return (np.roll(arr, -1, axis=axis) - arr) / h


def centered_diff(arr, axis, h):
    return (np.roll(arr, -1, axis=axis) - np.roll(arr, 1, axis=axis)) / (2.0 * h)


def d(f):
    """Forward-difference exterior derivative with periodic wrap."""
    h = f.grid.h
    if f.degree == 0:
        v = f.slot(0)
        return LatticeField.from_slots(f.grid, 1, [forward_diff(v, mu, h) for mu in range(3)])
    if f.degree == 1:
        slots = []
        for mu, nu in SLOTS2:
            slots.append(forward_diff(f.slot(nu), mu, h) - forward_diff(f.slot(mu), nu, h))
        return LatticeField.from_slots(f.grid, 2, slots)
    if f.degree == 2:
        w_xy, w_xz, w_yz = (f.slot(i) for i in range(3))
        out = forward_diff(w_yz, 0, h) - forward_diff(w_xz, 1, h) + forward_diff(w_xy, 2, h)
        return LatticeField.from_slots(f.grid, 3, [out])
    raise ValueError("cannot take d of a 3-form")


# bilinear products on value axes ------------------------------------------

def cross(a, b):
    """np.cross on the last axis, component by component in its operation order."""
    a, b = np.asarray(a), np.asarray(b)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.result_type(a, b))
    for k, i, j in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(a[..., i], b[..., j], out=out[..., k])
        out[..., k] -= a[..., j] * b[..., i]
    return out


def dot(a, b):
    """Dot product of 3-vectors on the last axis, x0 y0 + x1 y1 + x2 y2.

    Summed in that order, as np.sum(a * b, axis=-1) sums a whole grid of
    3-vectors, without the (..., 3) product array.  The values are equal;
    where all three products are -0 this gives -0 and np.sum +0.
    """
    out = a[..., 0] * b[..., 0]
    out += a[..., 1] * b[..., 1]
    out += a[..., 2] * b[..., 2]
    return out


def wedge(alpha, beta, product):
    """Wedge product with the bilinear function product(a, b) on values.

    product takes two value arrays: np.multiply, cross or a pair's bracket,
    for instance.  The i<j slot of a 1-wedge-1 is product(a_i, b_j) -
    product(a_j, b_i); mixed degrees expand dx-monomials into the ordered
    basis with the usual signs.
    """
    if alpha.grid != beta.grid:
        raise ValueError("grids differ")
    ka, kb = alpha.degree, beta.degree
    if ka + kb > 3:
        raise ValueError("wedge degree exceeds 3")
    g = alpha.grid
    if ka == 0 or kb == 0:
        scal, other, flip = (alpha, beta, False) if ka == 0 else (beta, alpha, True)
        s = scal.slot(0)
        slots = []
        for idx in range(SLOT_COUNT[other.degree]):
            o = other.slot(idx)
            slots.append(product(o, s) if flip else product(s, o))
        return LatticeField.from_slots(g, other.degree, slots)
    if (ka, kb) == (1, 1):
        data = None
        for slot, (mu, nu) in enumerate(SLOTS2):
            first = product(alpha.slot(mu), beta.slot(nu))
            if data is None:
                data = np.empty(first.shape[:3] + (len(SLOTS2),) + first.shape[3:],
                                dtype=first.dtype)
            np.subtract(first, product(alpha.slot(nu), beta.slot(mu)), out=data[:, :, :, slot])
        return LatticeField(g, 2, data)
    if (ka, kb) == (1, 2):
        out = (product(alpha.slot(0), beta.slot(2))
               - product(alpha.slot(1), beta.slot(1))
               + product(alpha.slot(2), beta.slot(0)))
        return LatticeField.from_slots(g, 3, [out])
    if (ka, kb) == (2, 1):
        out = (product(alpha.slot(2), beta.slot(0))
               - product(alpha.slot(1), beta.slot(1))
               + product(alpha.slot(0), beta.slot(2)))
        return LatticeField.from_slots(g, 3, [out])
    raise ValueError(f"unsupported wedge degrees ({ka}, {kb})")


def l2_inner(alpha, beta):
    """Discrete L2 pairing: sum over sites, slots, components times h^3."""
    if alpha.grid != beta.grid or alpha.data.shape != beta.data.shape:
        raise ValueError("shape mismatch in l2_inner")
    return float(np.sum(alpha.data * beta.data) * alpha.grid.h ** 3)


def l2_norm(alpha):
    return float(np.sqrt(l2_inner(alpha, alpha)))


def integrate_3form(omega):
    """Integral over the torus; returns a scalar for v=1, else a vector."""
    if omega.degree != 3:
        raise ValueError("integrate_3form needs a 3-form")
    total = np.sum(omega.data, axis=(0, 1, 2, 3)) * omega.grid.h ** 3
    if total.shape == (1,):
        return float(total[0])
    return total
