"""Discrete vector-valued differential forms on a periodic cubic grid.

The flat 3-torus of period L is sampled at n^3 sites, x_i = i h with
h = L/n.  All form degrees are collocated at sites; the exterior
derivative uses forward differences with periodic wrap, which keeps
d(d(f)) at roundoff and makes every integral of an exact form telescope
to zero.  2-form slots are ordered (xy, xz, yz) and carry the single
sum-over-i<j convention, so for Lie-algebra-valued 1-forms
(a ^ a)_{ij} = [a_i, a_j].

Storage is component-major, by one rule for every per-site array: data of
logical shape (n, n, n) + value axes is a transposed view of one
C-contiguous buffer that holds the value axes reversed, then the grid
axes.  A form's (n, n, n, slots, v) data lives in a (v, slots, n, n, n)
buffer and a map's (n, n, n, 3) values in a (3, n, n, n) one, so every
component is a single contiguous n^3 block and component arithmetic reads
no strided views.  empty_component_major allocates that layout,
is_component_major tests for it and component_major copies other data
into it, x-plane by x-plane; LatticeField and the map and lift fields
(fields) call it once, on construction.  Elementwise ufuncs, np.roll and
np.empty_like keep the layout, so d, wedge and field arithmetic carry it
through.  Reductions multiply or copy into a site-major buffer first, so
every sum runs in the order it ran on site-major data.

cross and dot are the package's one last-axis cross and dot product of
3-vectors, in the operation order of np.cross and np.sum(a * b, axis=-1),
whose rounding they keep; every whole-grid cross or dot product calls them
but algebra.qmul's, which are written into its output slot by slot.  Their
results, like algebra's quaternion kernels', are laid out like the operand
of full shape: component-major in, component-major out.
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

    def site_coords(self, planes=slice(None)):
        """Array (n, n, n, 3) of site positions, or those of the x-planes `planes`."""
        c = self.axis_coords()
        x, y, z = np.meshgrid(c[planes], c, c, indexing="ij")
        return np.stack([x, y, z], axis=-1)


def empty_component_major(shape, dtype=float):
    """Uninitialized per-site data of shape (n, n, n) + value axes, component-major."""
    k = len(shape) - 3
    buffer = np.empty(shape[:2:-1] + shape[:3], dtype)
    return buffer.transpose(*range(k, k + 3), *range(k - 1, -1, -1))


def is_component_major(data):
    """True when per-site data is laid out as empty_component_major lays it out."""
    return data.transpose(*range(data.ndim - 1, 2, -1), 0, 1, 2).flags.c_contiguous


def _planes(data):
    """Per-site data as x-planes of shape (value axes reversed, n, n): each
    component of a component-major plane is one contiguous block.  Copying
    plane by plane between layouts keeps both sides in cache."""
    return data.transpose(0, *range(data.ndim - 1, 2, -1), 1, 2)


def component_major(data):
    """data, or a copy of it laid out as empty_component_major lays it out,
    made x-plane by x-plane."""
    data = np.asarray(data)
    if is_component_major(data):
        return data
    copy = empty_component_major(data.shape, data.dtype)
    for dest, plane in zip(_planes(copy), _planes(data)):
        dest[...] = plane
    return copy


def empty_like_operands(shape, dtype, *operands):
    """An uninitialized result laid out like the first operand of that shape, else C order."""
    for op in operands:
        if op.shape == shape:
            return np.empty_like(op, dtype=dtype)
    return np.empty(shape, dtype)


class LatticeField:
    """A degree-k form with value dimension v: data shape (n, n, n, slots, v).

    The data is stored component-major (see the module docstring); data of
    any other layout, such as a site-major C-order array, is copied into
    that layout once.  Data is frozen after construction; operations build
    new fields.
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
        data = component_major(data)
        data.flags.writeable = False
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "data", data)

    def __setattr__(self, *a):
        raise AttributeError("LatticeField is immutable")

    @property
    def vdim(self):
        return self.data.shape[-1]

    @classmethod
    def zeros(cls, grid, degree, vdim):
        n = grid.n
        data = empty_component_major((n, n, n, SLOT_COUNT[degree], vdim))
        data[...] = 0.0
        return cls(grid, degree, data)

    @classmethod
    def from_slots(cls, grid, degree, slots):
        """Build from a list of per-slot arrays shaped (n, n, n, v)."""
        n = grid.n
        data = empty_component_major((n, n, n, len(slots)) + np.shape(slots[0])[3:],
                                     np.result_type(*slots))
        for index, values in enumerate(slots):
            data[:, :, :, index] = values
        return cls(grid, degree, data)

    def slot(self, index):
        return self.data[:, :, :, index, :]

    def norm2_density(self):
        """Pointwise squared norm, summed over slots and components.

        One x-plane at a time, squared into a site-major plane, so the
        squares never fill a second field and sum as on site-major data.
        """
        out = np.empty(self.data.shape[:3], dtype=self.data.dtype)
        squares = np.empty(self.data.shape[1:], dtype=self.data.dtype)
        for x, plane in enumerate(_planes(self.data)):
            np.multiply(plane, plane, out=squares.transpose(3, 2, 0, 1))
            np.sum(squares, axis=(2, 3), out=out[x])
        return out

    # small linear algebra of fields
    def __add__(self, other):
        self._compat(other)
        return LatticeField(self.grid, self.degree, self.data + other.data)

    def __sub__(self, other):
        self._compat(other)
        return LatticeField(self.grid, self.degree, self.data - other.data)

    def __neg__(self):
        return LatticeField(self.grid, self.degree, -self.data)

    def _compat(self, other):
        if self.grid != other.grid or self.degree != other.degree or self.vdim != other.vdim:
            raise ValueError("incompatible fields")


def forward_diff(arr, axis, h, out=None):
    out = np.subtract(np.roll(arr, -1, axis=axis), arr, out=out)
    out /= h
    return out


def forward_diff_symbols(grid):
    """Fourier symbols of forward_diff on the np.fft.rfftn half spectrum, and their squared sum.

    s[mu] = (exp(2 pi i k_mu / n) - 1) / h, broadcast along axis mu, where k_2
    runs over the n // 2 + 1 frequencies rfftn keeps on the last axis, and
    S = sum_mu |s[mu]|^2, the symbol of minus the lattice Laplacian (the
    backward-difference divergence of the forward-difference gradient),
    with its zero mode set to 1 so that it divides.
    """
    n, h = grid.n, grid.h
    k = np.fft.fftfreq(n, d=1.0 / n)
    s = [(np.exp(2j * np.pi * km / n) - 1.0) / h
         for km in (k[:, None, None], k[None, :, None], np.fft.rfftfreq(n, d=1.0 / n)[None, None])]
    S = sum(np.abs(sm) ** 2 for sm in s)
    S[(0,) * 3] = 1.0
    return s, S


def coulomb_solve(form):
    """P = L^-1 div(form), the inverse of d in Coulomb gauge: a form one degree lower.

    div is the backward-difference adjoint of d: sum_mu conj(s_mu) b_mu on a
    1-form b, and sum_mu conj(s_mu) F_{mu nu} in slot nu of a 2-form F.  L is
    minus the lattice Laplacian.  So dP(F) = F for a closed F with zero flux
    through every coordinate 2-torus, and b - dP(b) is divergence free.  div
    has no zero mode, so P has zero mean.  Each input slot goes through one
    rfftn, each output slot through one irfftn.
    """
    if form.degree not in (1, 2):
        raise ValueError("coulomb_solve needs a 1-form or a 2-form")
    n = form.grid.n
    s, S = forward_diff_symbols(form.grid)
    axes = (0, 1, 2)
    out = empty_component_major((n, n, n, SLOT_COUNT[form.degree - 1], form.vdim))
    for c in range(form.vdim):
        hat = [np.fft.rfftn(form.data[:, :, :, slot, c], axes=axes)
               for slot in range(SLOT_COUNT[form.degree])]
        if form.degree == 1:
            divs = [sum(np.conj(s[mu]) * hat[mu] for mu in range(3))]
        else:   # F_{nu mu} = -F_{mu nu}: one transform per slot, the sign applied at use
            divs = [sum(np.conj(s[mu]) * hat[SLOTS2.index((mu, nu))] if mu < nu
                        else -np.conj(s[mu]) * hat[SLOTS2.index((nu, mu))]
                        for mu in range(3) if mu != nu) for nu in range(3)]
        for slot, acc in enumerate(divs):
            out[:, :, :, slot, c] = np.fft.irfftn(acc / S, s=(n, n, n), axes=axes)
    return LatticeField(form.grid, form.degree - 1, out)


def centered_diff(arr, axis, h):
    return (np.roll(arr, -1, axis=axis) - np.roll(arr, 1, axis=axis)) / (2.0 * h)


def d(f):
    """Forward-difference exterior derivative with periodic wrap.

    Each slot's difference is written straight into the new form's buffer.
    """
    h = f.grid.h
    n = f.grid.n
    if f.degree == 3:
        raise ValueError("cannot take d of a 3-form")
    out = empty_component_major((n, n, n, SLOT_COUNT[f.degree + 1], f.vdim), f.data.dtype)
    if f.degree == 0:
        for mu in range(3):
            forward_diff(f.slot(0), mu, h, out=out[:, :, :, mu])
    elif f.degree == 1:
        for slot, (mu, nu) in enumerate(SLOTS2):
            dest = forward_diff(f.slot(nu), mu, h, out=out[:, :, :, slot])
            dest -= forward_diff(f.slot(mu), nu, h)
    else:
        # slots (xy, xz, yz): d_x w_yz - d_y w_xz + d_z w_xy
        dest = forward_diff(f.slot(2), 0, h, out=out[:, :, :, 0])
        dest -= forward_diff(f.slot(1), 1, h)
        dest += forward_diff(f.slot(0), 2, h)
    return LatticeField(f.grid, f.degree + 1, out)


# bilinear products on value axes ------------------------------------------

def cross(a, b):
    """np.cross on the last axis, component by component in its operation order."""
    a, b = np.asarray(a), np.asarray(b)
    out = empty_like_operands(np.broadcast(a, b).shape, np.result_type(a, b), a, b)
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
                data = empty_component_major(first.shape[:3] + (len(SLOTS2),) + first.shape[3:],
                                             first.dtype)
            np.subtract(first, product(alpha.slot(nu), beta.slot(mu)), out=data[:, :, :, slot])
        return LatticeField(g, 2, data)
    if ka == 2:
        # alpha ^ beta = beta ^ alpha here: the (1, 2) sum, factors exchanged
        alpha, beta, fn = beta, alpha, product
        product = lambda a, b: fn(b, a)
    out = (product(alpha.slot(0), beta.slot(2))
           - product(alpha.slot(1), beta.slot(1))
           + product(alpha.slot(2), beta.slot(0)))
    return LatticeField.from_slots(g, 3, [out])


def l2_inner(alpha, beta):
    """Discrete L2 pairing: sum over sites, slots, components times h^3."""
    if alpha.grid != beta.grid or alpha.data.shape != beta.data.shape:
        raise ValueError("shape mismatch in l2_inner")
    products = np.empty(alpha.data.shape)  # site-major, so the sum runs as it always has
    for dest, a, b in zip(_planes(products), _planes(alpha.data), _planes(beta.data)):
        np.multiply(a, b, out=dest)
    return float(np.sum(products) * alpha.grid.h ** 3)


def l2_norm(alpha):
    return float(np.sqrt(l2_inner(alpha, alpha)))


def integrate_3form(omega):
    """Integral over the torus; returns a scalar for v=1, else a vector."""
    if omega.degree != 3:
        raise ValueError("integrate_3form needs a 3-form")
    # summed site-major, in the order of a site-major form's sum
    total = np.sum(np.ascontiguousarray(omega.data), axis=(0, 1, 2, 3)) * omega.grid.h ** 3
    if total.shape == (1,):
        return float(total[0])
    return total
