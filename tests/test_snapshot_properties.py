"""Property tests of the snapshot format: round trips are bit-exact, and
truncated, bit-flipped or garbled bytes end in SnapshotError, never in
another exception.  The ASCII exporter writes the bytes of repr per value."""

import json
import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hopfion import algebra as alg
from hopfion import fields as fl
from hopfion import io as hio
from hopfion.lattice import Grid, LatticeField

# bounded example counts keep the suite's run time flat; derandomized, so
# every run draws the same examples
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

N = 4


def _field(kind, seed, length=2.0 * np.pi):
    """A generic field of the kind on an N^3 grid; map and lift values are unit."""
    grid = Grid(N, length)
    rng = np.random.default_rng(seed)
    if kind == "map_s2":
        return fl.MapField(grid, alg.su2_u1(), rng.standard_normal((N,) * 3 + (3,)))
    if kind == "lift_su2":
        return fl.LiftField(grid, alg.su2_u1(), rng.standard_normal((N,) * 3 + (4,)))
    a = LatticeField(grid, 1, rng.standard_normal((N,) * 3 + (3, 3)))
    return fl.PotentialField(a, fl.constant_map(grid))


def _data(obj):
    return obj.a.data if isinstance(obj, fl.PotentialField) else obj.values


def _blob(tmp_path_factory, obj):
    path = tmp_path_factory.mktemp("snap") / "s.hopf"
    hio.write_snapshot(path, obj)
    return path.read_bytes()


def _read_bytes(tmp_path_factory, blob):
    path = tmp_path_factory.mktemp("damaged") / "s.hopf"
    path.write_bytes(blob)
    return hio.read_snapshot(path)


def _read_or_snapshot_error(tmp_path_factory, blob):
    """Read damaged bytes: a valid field comes back or SnapshotError is raised."""
    try:
        meta, obj = _read_bytes(tmp_path_factory, blob)
    except hio.SnapshotError:
        return
    assert meta["kind"] in hio.FIELD_KINDS
    assert np.all(np.isfinite(_data(obj)))
    if not isinstance(obj, fl.PotentialField):
        assert np.all(np.abs(alg.qnorm(obj.values) - 1.0) <= alg.UNIT_TOL)


@PROPERTY
@given(kind=st.sampled_from(hio.FIELD_KINDS), seed=st.integers(0, 2 ** 32 - 1),
       length=st.floats(1e-3, 1e3))
def test_roundtrip_bit_exact(tmp_path_factory, kind, seed, length):
    obj = _field(kind, seed, length)
    meta, back = _read_bytes(tmp_path_factory, _blob(tmp_path_factory, obj))
    assert meta["kind"] == kind
    assert back.grid == obj.grid
    assert _data(back).tobytes() == _data(obj).tobytes()


@PROPERTY
@given(data=arrays(np.float64, (N,) * 3 + (3, 3),
                   elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_potential_roundtrip_any_finite_floats(tmp_path_factory, data):
    # subnormals, -0.0 and the largest floats keep their bits
    obj = fl.PotentialField(LatticeField(Grid(N), 1, data), fl.constant_map(Grid(N)))
    _, back = _read_bytes(tmp_path_factory, _blob(tmp_path_factory, obj))
    assert back.a.data.tobytes() == data.tobytes()


@PROPERTY
@given(kind=st.sampled_from(hio.FIELD_KINDS), seed=st.integers(0, 2 ** 32 - 1),
       cut=st.floats(0.0, 1.0, exclude_max=True))
def test_truncated_bytes_raise_snapshot_error(tmp_path_factory, kind, seed, cut):
    blob = _blob(tmp_path_factory, _field(kind, seed))
    try:
        _read_bytes(tmp_path_factory, blob[:int(cut * len(blob))])
    except hio.SnapshotError:
        return
    raise AssertionError("a truncated snapshot was read")


@PROPERTY
@given(kind=st.sampled_from(hio.FIELD_KINDS), seed=st.integers(0, 2 ** 32 - 1),
       in_header=st.booleans(), where=st.floats(0.0, 1.0, exclude_max=True),
       bit=st.integers(0, 7))
def test_bit_flips_read_or_raise_snapshot_error(tmp_path_factory, kind, seed, in_header,
                                                where, bit):
    blob = bytearray(_blob(tmp_path_factory, _field(kind, seed)))
    # half the flips land in the header and metadata, a few percent of the bytes
    span = 12 + struct.unpack("<I", blob[8:12])[0] if in_header else len(blob)
    blob[int(where * span)] ^= 1 << bit
    _read_or_snapshot_error(tmp_path_factory, bytes(blob))


_JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-8, 10 ** 6), st.floats(),
                         st.text(max_size=8), st.sampled_from(hio.FIELD_KINDS))
_METADATA = st.one_of(
    st.binary(max_size=160),
    st.dictionaries(st.sampled_from(["n", "length", "kind", "components", "creator"]),
                    _JSON_VALUES).map(lambda meta: json.dumps(meta).encode("utf-8")))


@PROPERTY
@given(meta=_METADATA, payload=st.binary(max_size=64))
def test_garbled_metadata_reads_or_raises_snapshot_error(tmp_path_factory, meta, payload):
    header = hio.MAGIC + struct.pack("<II", hio.FORMAT_VERSION, len(meta))
    _read_or_snapshot_error(tmp_path_factory, header + meta + payload)


# signed zeros, the smallest and largest subnormals, and the extremes
_EXPORT_SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e308, -1e308,
                    1.7976931348623157e308]


@PROPERTY
@given(cols=st.sampled_from([1, 3, 4]), extra=st.sampled_from([-1, 0, 1]),
       sep=st.sampled_from([" ", ","]), distinct=st.sampled_from([1, 3, 40, 2048, 4096, None]),
       drawn=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_text_chunks_match_per_value_repr(cols, extra, sep, distinct, drawn, seed):
    """Block edges at _BLOCK_ROWS +- 1; repeats from a small or a large pool, or all distinct."""
    rng = np.random.default_rng(seed)
    nrows = hio._BLOCK_ROWS + extra
    if distinct is None:
        values = rng.standard_normal(nrows * cols) * 10.0 ** rng.integers(-320, 300, nrows * cols)
    else:
        pool = np.array(_EXPORT_SPECIALS + drawn + rng.standard_normal(distinct).tolist())
        values = pool[rng.integers(len(pool), size=nrows * cols)]
    values[rng.integers(nrows * cols, size=2 * len(_EXPORT_SPECIALS))] = _EXPORT_SPECIALS * 2
    rows = values.reshape(nrows, cols)
    oracle = "".join(sep.join(map(repr, row)) + "\n" for row in rows.tolist())
    expected = ("head\n" + oracle).encode("utf-8")
    assert b"".join(hio._text_chunks("head", [rows], sep)) == expected
    # the rows cut into two blocks anywhere give the same bytes
    cut = int(rng.integers(nrows + 1))
    assert b"".join(hio._text_chunks("head", [rows[:cut], rows[cut:]], sep)) == expected
