"""Storage layout: forms, maps and lifts are component-major.

Every form builder is checked against the same formula evaluated on
site-major (C-order) copies of its inputs, with np.array_equal: the layout
moves no value.
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
                             empty_form, forward_diff, integrate_3form, is_component_major,
                             l2_inner, wedge)

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
        return fl.split_form(a, psi)[name == "split_perp"], (raw - par if name == "split_perp" else par)
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
        ad_omega = alg.qrotate(alg.qconj(w)[:, :, :, None], omega)
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


def test_empty_form_and_conversion(grid, rng):
    data = empty_form((N,) * 3 + (3, 3))
    assert is_component_major(data) and not data.flags.c_contiguous
    assert data.transpose(4, 3, 0, 1, 2).flags.c_contiguous
    raw = rng.standard_normal((N,) * 3 + (3, 3))
    field = LatticeField(grid, 1, raw)
    assert field.data is not raw and raw.flags.writeable  # the caller's array is copied, not frozen
    assert not field.data.flags.writeable
    # component-major data is taken as it is
    again = LatticeField(grid, 1, field.data)
    assert np.shares_memory(again.data, field.data)


def test_reductions_sum_site_major(grid, rng):
    # the sums run in the order numpy sums site-major data
    a, b = (LatticeField(grid, 1, rng.standard_normal((N,) * 3 + (3, 3))) for _ in range(2))
    h3 = grid.h ** 3
    assert l2_inner(a, b) == float(np.sum(site_major(a) * site_major(b)) * h3)
    assert np.array_equal(a.norm2_density(), np.sum(site_major(a) ** 2, axis=(3, 4)))
    top = LatticeField(grid, 3, rng.standard_normal((N,) * 3 + (1, 3)))
    assert np.array_equal(integrate_3form(top), np.sum(site_major(top), axis=(0, 1, 2, 3)) * h3)


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


def test_split_form_trusts_the_map(grid, rng, monkeypatch):
    # the map was checked unit where it was built; a raw point is checked per call
    psi = smooth_cp1_map(grid, rng, amplitude=0.5)
    a = LatticeField(grid, 2, rng.standard_normal((N,) * 3 + (3, 3)))
    calls = []
    check_unit = alg.check_unit
    monkeypatch.setattr(alg, "check_unit",
                        lambda q, what: calls.append(what) or check_unit(q, what))
    par, perp = fl.split_form(a, psi)
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
