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
through.  Reductions (l2_inner, norm2_density, integrate_3form) read the
buffer as stored, with no copy, so their sums run in storage order: within
about 1e-14 relative of the same sums over site-major data.

cross and dot are the package's one last-axis cross product of 3-vectors
and dot product, in the operation order of np.cross and np.sum(a * b, axis=-1),
whose rounding they keep; every whole-grid cross or dot product calls them
but algebra.qmul's, which are written into its output slot by slot.  Their
results, like algebra's quaternion kernels', are laid out like the operand
of full shape: component-major in, component-major out.
"""

from __future__ import annotations

import numbers
import sys
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
        if not isinstance(self.n, numbers.Integral) or isinstance(self.n, bool):
            raise ValueError(f"grid size n = {self.n!r} is not an integer")
        if not isinstance(self.length, numbers.Real) or isinstance(self.length, bool):
            raise ValueError(f"period length = {self.length!r} is not a real number")
        if self.n < 4:
            raise ValueError("grid needs at least 4 sites per axis")
        if not spacing_fits(self.n, self.length):
            raise ValueError(f"period length = {self.length!r} over n = {self.n}: the spacing's "
                             "powers h^-4 ... h^3 are not all positive, finite and normal")

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


def spacing_fits(n, length):
    """True when the kernels' powers h^-4 ... h^3 of h = length / n are finite normal floats."""
    try:
        h = float(length) / n
        return all(sys.float_info.min <= h ** p <= sys.float_info.max for p in range(-4, 4))
    except (OverflowError, ZeroDivisionError):
        return False


def empty_component_major(shape, dtype=float):
    """Uninitialized per-site data of shape (n, n, n) + value axes, component-major."""
    k = len(shape) - 3
    buffer = np.empty(shape[:2:-1] + shape[:3], dtype)
    return buffer.transpose(*range(k, k + 3), *range(k - 1, -1, -1))


def _buffer(data):
    """Per-site data in storage order: value axes reversed, then the grid axes."""
    return data.transpose(*range(data.ndim - 1, 2, -1), 0, 1, 2)


def is_component_major(data):
    """True when per-site data is laid out as empty_component_major lays it out."""
    return _buffer(data).flags.c_contiguous


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
        # a finite sum has finite terms: no boolean copy unless the sum overflows
        with np.errstate(over="ignore", invalid="ignore"):
            if not (np.isfinite(np.sum(data)) or np.all(np.isfinite(data))):
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
        """Pointwise squared norm, summed over the stored component blocks in order."""
        blocks = _buffer(self.data)
        return np.einsum("csxyz,csxyz->xyz", blocks, blocks)

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


def _along(axis, part):
    """Index of the slice part along the grid axis `axis` of per-site data."""
    return (slice(None),) * axis + (part,)


def forward_diff(arr, axis, h, out=None):
    """(arr(x + e_axis) - arr(x)) / h with periodic wrap, from slices of arr rather
    than a rolled copy; out, when given, must not overlap arr."""
    if out is None:
        out = np.empty_like(arr)
    np.subtract(arr[_along(axis, slice(1, None))], arr[_along(axis, slice(None, -1))],
                out=out[_along(axis, slice(None, -1))])
    np.subtract(arr[_along(axis, slice(None, 1))], arr[_along(axis, slice(-1, None))],
                out=out[_along(axis, slice(-1, None))])
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
    """(arr(x + e_axis) - arr(x - e_axis)) / 2h with periodic wrap, from slices of arr."""
    out = np.empty_like(arr)
    np.subtract(arr[_along(axis, slice(2, None))], arr[_along(axis, slice(None, -2))],
                out=out[_along(axis, slice(1, -1))])
    np.subtract(arr[_along(axis, slice(1, 2))], arr[_along(axis, slice(-1, None))],
                out=out[_along(axis, slice(None, 1))])
    np.subtract(arr[_along(axis, slice(None, 1))], arr[_along(axis, slice(-2, -1))],
                out=out[_along(axis, slice(-1, None))])
    out /= 2.0 * h
    return out


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
        for slot in range(len(SLOTS2)):
            d_slot(f, slot, out=out[:, :, :, slot])
    else:
        # slots (xy, xz, yz): d_x w_yz - d_y w_xz + d_z w_xy
        dest = forward_diff(f.slot(2), 0, h, out=out[:, :, :, 0])
        dest -= forward_diff(f.slot(1), 1, h)
        dest += forward_diff(f.slot(0), 2, h)
    return LatticeField(f.grid, f.degree + 1, out)


def d_slot(f, slot, out=None):
    """Slot SLOTS2[slot] = (mu, nu) of d(f) for a 1-form alone: d_mu f_nu - d_nu f_mu."""
    mu, nu = SLOTS2[slot]
    dest = forward_diff(f.slot(nu), mu, f.grid.h, out=out)
    dest -= forward_diff(f.slot(mu), nu, f.grid.h)
    return dest


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
    """Dot product on the last axis, x0 y0 + x1 y1 + x2 y2 + ...

    Summed in that order, as np.sum(a * b, axis=-1) sums a whole grid of
    3-vectors, without the (..., k) product array.  The values are equal;
    where all products are -0 this gives -0 and np.sum +0.
    """
    out = a[..., 0] * b[..., 0]
    for k in range(1, a.shape[-1]):
        out += a[..., k] * b[..., k]
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
        first = wedge_slot(alpha, beta, product, 0)
        data = empty_component_major(first.shape[:3] + (len(SLOTS2),) + first.shape[3:],
                                     first.dtype)
        data[:, :, :, 0] = first
        del first
        for slot in range(1, len(SLOTS2)):
            wedge_slot(alpha, beta, product, slot, out=data[:, :, :, slot])
        return LatticeField(g, 2, data)
    if ka == 2:
        # alpha ^ beta = beta ^ alpha here: the (1, 2) sum, factors exchanged
        alpha, beta, fn = beta, alpha, product
        product = lambda a, b: fn(b, a)
    out = (product(alpha.slot(0), beta.slot(2))
           - product(alpha.slot(1), beta.slot(1))
           + product(alpha.slot(2), beta.slot(0)))
    return LatticeField.from_slots(g, 3, [out])


def wedge_slot(alpha, beta, product, slot, out=None):
    """Slot SLOTS2[slot] = (mu, nu) of wedge(alpha, beta, product) for 1-forms alone."""
    mu, nu = SLOTS2[slot]
    return np.subtract(product(alpha.slot(mu), beta.slot(nu)),
                       product(alpha.slot(nu), beta.slot(mu)), out=out)


def l2_inner(alpha, beta):
    """Discrete L2 pairing: sum over sites, slots, components times h^3."""
    if alpha.grid != beta.grid or alpha.data.shape != beta.data.shape:
        raise ValueError("shape mismatch in l2_inner")
    return flat_inner(_buffer(alpha.data).ravel(), _buffer(beta.data).ravel()) * alpha.grid.h ** 3


def flat_inner(u, v):
    """u.v of flat arrays in numpy's own fixed-order loop, not a BLAS dot,
    which splits the sum over its threads: the sum would change with their count."""
    return float(np.einsum("i,i->", u, v))


def l2_norm(alpha):
    return float(np.sqrt(l2_inner(alpha, alpha)))


def integrate_3form(omega):
    """Integral over the torus; returns a scalar for v=1, else a vector."""
    if omega.degree != 3:
        raise ValueError("integrate_3form needs a 3-form")
    total = np.sum(_buffer(omega.data).reshape(omega.vdim, -1), axis=1) * omega.grid.h ** 3
    if total.shape == (1,):
        return float(total[0])
    return total
