"""Storage layout: forms, maps and lifts are component-major.

Every form builder is checked against the same formula evaluated on
site-major (C-order) copies of its inputs, with np.array_equal: the layout
moves no value.  Reductions sum in storage order, so they match the
site-major sums to 1e-14 relative.
"""

import tracemalloc

import numpy as np
import pytest

from conftest import smooth_cp1_map, smooth_lift
from hopfion import algebra as alg
from hopfion import fields as fl
from hopfion import io as hio
from hopfion.energy import comm_wedge
from hopfion.gauge import (make_stabilizer, projector_derivative_wedge, smooth_scalar,
                           stabilizer_log_derivative)
from hopfion.lattice import (SLOTS2, Grid, LatticeField, centered_diff, component_major, cross, d,
                             empty_component_major, forward_diff, integrate_3form,
                             is_component_major, l2_inner, wedge)

N = 10


def site_major(form):
    return np.ascontiguousarray(form.data)


def components_contiguous(values):
    return all(values[..., k].flags.c_contiguous for k in range(values.shape[-1]))


@pytest.fixture
def grid():
    return Grid(N)


@pytest.fixture
def inputs(grid, rng):
    psi = smooth_cp1_map(grid, rng, amplitude=0.5)
    u = smooth_lift(grid, rng, amplitude=0.4)
    raw = rng.standard_normal((N,) * 3 + (3, 3))
    return psi, u, raw, LatticeField(grid, 1, raw)


def _d1(a):
    c = np.ascontiguousarray(a)
    return np.stack([forward_diff(c[:, :, :, nu], mu, 2 * np.pi / N)
                     - forward_diff(c[:, :, :, mu], nu, 2 * np.pi / N)
                     for mu, nu in SLOTS2], axis=3)


def _built(name, psi, u, raw, a):
    """(form, site-major reference) for each builder."""
    h = psi.grid.h
    if name == "from_site_major":
        return a, raw
    if name == "d":
        return d(a), _d1(raw)
    if name == "wedge":
        return wedge(a, a, cross), np.stack(
            [np.cross(raw[:, :, :, mu], raw[:, :, :, nu]) - np.cross(raw[:, :, :, nu], raw[:, :, :, mu])
             for mu, nu in SLOTS2], axis=3)
    if name == "comm_wedge":
        return comm_wedge(a, alg.su2_u1()), np.stack(
            [2.0 * np.cross(raw[:, :, :, mu], raw[:, :, :, nu]) for mu, nu in SLOTS2], axis=3)
    if name in ("split_par", "split_perp"):
        phi = psi.values[:, :, :, None]
        par = np.sum(raw * phi, axis=-1, keepdims=True) * phi
        if name == "split_perp":
            return fl.coisotropic_part(a, psi), raw - par
        return fl.isotropic_part(a, psi), par
    if name == "pullback_coisotropy":
        return fl.pullback_coisotropy(psi), np.stack(
            [0.5 * np.cross(psi.values, centered_diff(psi.values, mu, h)) for mu in range(3)], axis=3)
    if name == "map_tangents":
        tangents = fl.map_tangents(psi)
        assert all(components_contiguous(t) for t in tangents)
        p = np.ascontiguousarray(psi.values)
        return LatticeField.from_slots(psi.grid, 1, tangents), np.stack(
            [centered_diff(p, mu, h) for mu in range(3)], axis=3)
    if name == "projector_derivative_wedge":
        p = np.ascontiguousarray(psi.values)
        v = [centered_diff(p, mu, h) for mu in range(3)]

        def product(v, xi):
            return (np.sum(xi * v, axis=-1, keepdims=True) * p
                    + np.sum(xi * p, axis=-1, keepdims=True) * v)
        return projector_derivative_wedge(psi, a), np.stack(
            [product(v[mu], raw[:, :, :, nu]) - product(v[nu], raw[:, :, :, mu])
             for mu, nu in SLOTS2], axis=3)
    if name == "stabilizer_log_derivative_exact":
        stab = make_stabilizer(psi, smooth_scalar(psi.grid, np.random.default_rng(3)))
        p, w = np.ascontiguousarray(psi.values), np.ascontiguousarray(stab.w.values)
        omega = np.stack([0.5 * np.cross(p, centered_diff(p, mu, h)) for mu in range(3)], axis=3)
        # Ad(w^-1) as the homogeneous matrix of conj(w), in qrotate_form's operation order
        a, b, c, e = (alg.qconj(w)[..., k, None] for k in range(4))
        aa, bb, cc, ee = a * a, b * b, c * c, e * e
        m = (((aa + bb) - cc - ee, 2.0 * (b * c - a * e), 2.0 * (b * e + a * c)),
             (2.0 * (b * c + a * e), (aa - bb) + cc - ee, 2.0 * (c * e - a * b)),
             (2.0 * (b * e - a * c), 2.0 * (c * e + a * b), (aa - bb) - cc + ee))
        ad_omega = np.stack([row[0] * omega[..., 0] + row[1] * omega[..., 1] + row[2] * omega[..., 2]
                             for row in m], axis=-1)
        return stabilizer_log_derivative(stab, scheme="exact"), np.stack(
            [forward_diff(stab.theta, mu, h)[..., None] * p + ad_omega[:, :, :, mu]
             - omega[:, :, :, mu] for mu in range(3)], axis=3)
    if name == "pure_gauge_potential":
        inv = alg.qconj(u.values)
        return fl.pure_gauge_potential(u).a, np.stack(
            [alg.qlog(alg.qmul(inv, np.roll(u.values, -1, axis=mu))) / h for mu in range(3)], axis=3)
    if name == "add":
        return a + a, raw + raw
    if name == "sub":
        b = LatticeField(a.grid, 1, 0.5 * raw)
        return a - b, raw - 0.5 * raw
    raise AssertionError(name)


@pytest.mark.parametrize("name", [
    "from_site_major", "d", "wedge", "comm_wedge", "split_par", "split_perp",
    "pullback_coisotropy", "pure_gauge_potential", "add", "sub", "map_tangents",
    "projector_derivative_wedge", "stabilizer_log_derivative_exact"])
def test_forms_component_major_with_site_major_values(inputs, name):
    form, reference = _built(name, *inputs)
    assert is_component_major(form.data)
    assert all(form.data[:, :, :, s, k].flags.c_contiguous
               for s in range(form.data.shape[3]) for k in range(form.vdim))
    assert np.array_equal(form.data, reference)


def _form_data(grid, x):
    return LatticeField(grid, 1, x).data


def _map_values(grid, x):
    return fl.MapField(grid, alg.su2_u1(), x, renormalize=False).values


@pytest.mark.parametrize("value_shape, buffer_axes, build", [
    ((3, 3), (4, 3, 0, 1, 2), _form_data), ((3,), (3, 0, 1, 2), _map_values)],
    ids=["form", "site"])
def test_empty_component_major_and_conversion(grid, rng, value_shape, buffer_axes, build):
    # one rule for a form's (slots, v) and a site's (c,) value axes
    shape = (N,) * 3 + value_shape
    data = empty_component_major(shape)
    assert data.shape == shape
    assert is_component_major(data) and not data.flags.c_contiguous
    assert data.transpose(buffer_axes).flags.c_contiguous
    raw = rng.standard_normal(shape)
    raw /= np.linalg.norm(raw, axis=-1, keepdims=True)  # unit, as a map's values must be
    copy = component_major(raw)
    assert is_component_major(copy) and np.array_equal(copy, raw)
    assert component_major(copy) is copy
    built = build(grid, raw)
    assert built is not raw and raw.flags.writeable  # the caller's array is copied, not frozen
    assert not built.flags.writeable and np.array_equal(built, raw)
    # component-major data is taken as it is
    assert np.shares_memory(build(grid, built), built)


def test_reductions_match_site_major_sums(grid, rng):
    # the sums run in storage order: the site-major sums' values to 1e-14
    # relative, not their last bits
    a, b = (LatticeField(grid, 1, rng.standard_normal((N,) * 3 + (3, 3))) for _ in range(2))
    h3 = grid.h ** 3
    products = site_major(a) * site_major(b)
    assert abs(l2_inner(a, b) - np.sum(products) * h3) <= 1e-14 * np.sum(np.abs(products)) * h3
    squares = np.sum(site_major(a) ** 2, axis=(3, 4))
    assert np.all(np.abs(a.norm2_density() - squares) <= 1e-14 * squares)
    top = LatticeField(grid, 3, rng.standard_normal((N,) * 3 + (1, 3)))
    ref = np.sum(site_major(top), axis=(0, 1, 2, 3)) * h3
    scale = np.sum(np.abs(top.data), axis=(0, 1, 2, 3)) * h3
    assert np.all(np.abs(integrate_3form(top) - ref) <= 1e-14 * scale)


@pytest.mark.parametrize("reduce", ["l2_inner", "integrate_3form"])
def test_reductions_copy_nothing(reduce):
    # the stored buffers are read as they are: no product array, no
    # contiguous copy (the site-major sums took 1.06 and 0.33 one-forms)
    grid = Grid(32)
    rng = np.random.default_rng(6)
    a = LatticeField(grid, 1, rng.standard_normal((32,) * 3 + (3, 3)))
    top = LatticeField(grid, 3, rng.standard_normal((32,) * 3 + (1, 3)))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        l2_inner(a, a) if reduce == "l2_inner" else integrate_3form(top)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak / a.data.nbytes <= 0.05


def _site_field(grid, rng, kind):
    """A map or a lift, and the constructor of its type."""
    if kind == "map":
        return smooth_cp1_map(grid, rng, amplitude=0.5), fl.MapField
    return smooth_lift(grid, rng, amplitude=0.4), fl.LiftField


@pytest.mark.parametrize("kind", ["map", "lift"])
def test_map_and_lift_values_component_major(grid, rng, kind):
    field, build = _site_field(grid, rng, kind)
    c_order = np.ascontiguousarray(field.values)
    from_c = build(grid, field.pair, c_order, renormalize=False)
    from_cm = build(grid, field.pair, component_major(c_order), renormalize=False)
    assert np.array_equal(from_c.values, from_cm.values)
    for values in (from_c.values, from_cm.values, build(grid, field.pair, c_order).values):
        assert components_contiguous(values) and not values.flags.c_contiguous
    assert c_order.flags.writeable  # the caller's C-order array is copied, not frozen
    psi, u = smooth_cp1_map(grid, rng, amplitude=0.5), smooth_lift(grid, rng, amplitude=0.4)
    assert components_contiguous(fl.act(u, psi).values)


@pytest.mark.parametrize("renormalize", [True, False])
@pytest.mark.parametrize("kind", ["map", "lift"])
def test_map_and_lift_values_frozen(grid, rng, kind, renormalize):
    field, build = _site_field(grid, rng, kind)
    c_order = np.ascontiguousarray(field.values)
    for given in (c_order, component_major(c_order)):
        values = build(grid, field.pair, given, renormalize=renormalize).values
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[0, 0, 0, 0] = 0.5


def test_form_parts_trust_the_map(grid, rng, monkeypatch):
    # the map was checked unit where it was built; a raw point is checked per call
    psi = smooth_cp1_map(grid, rng, amplitude=0.5)
    a = LatticeField(grid, 2, rng.standard_normal((N,) * 3 + (3, 3)))
    calls = []
    check_unit = alg.check_unit
    monkeypatch.setattr(alg, "check_unit",
                        lambda q, what: calls.append(what) or check_unit(q, what))
    par, perp = fl.isotropic_part(a, psi), fl.coisotropic_part(a, psi)
    assert calls == []
    raw = alg.project_isotropy(psi.pair, psi.values[:, :, :, None], a.data)
    assert len(calls) == 1
    assert np.array_equal(par.data, raw[0]) and np.array_equal(perp.data, raw[1])


def test_potential_snapshot_bytes_site_major(tmp_path, grid, rng):
    u = smooth_lift(grid, rng, amplitude=0.4)
    a = fl.pure_gauge_potential(u)
    assert not a.a.data.flags.c_contiguous
    path = tmp_path / "a.hopf"
    hio.write_snapshot(path, a)
    payload = hio._site_payload(site_major(a.a).reshape((N,) * 3 + (9,))).tobytes()
    blob = path.read_bytes()
    assert blob[-len(payload):] == payload
    assert len(blob) == 12 + int.from_bytes(blob[8:12], "little") + len(payload)


@pytest.mark.parametrize("kind", ["map", "lift", "potential"])
def test_snapshot_write_holds_one_payload_copy(tmp_path, kind):
    # the payload is copied once into file order and written as it is
    psi, u = fl.make_ansatz("hopf", Grid(32), 1)
    obj = {"map": psi, "lift": u, "potential": fl.pure_gauge_potential(u)}[kind]
    values = obj.a.data if kind == "potential" else obj.values
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        hio.write_snapshot(tmp_path / "s.hopf", obj)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak / values.nbytes <= 1.25


def test_lift_density_export_squares_one_plane(tmp_path):
    # each x-plane is squared as its rows are written: no whole-grid square
    _, u = fl.make_ansatz("hopf", Grid(32), 1)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        hio.export_density_csv(tmp_path / "u.csv", u)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak / u.values.nbytes <= 0.5


def test_d_writes_into_one_form():
    # each slot's difference goes into the new form's buffer: no stacked copy
    grid = Grid(32)
    f = LatticeField(grid, 1, np.random.default_rng(5).standard_normal((32,) * 3 + (3, 3)))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        d(f)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak / f.data.nbytes <= 1.8
