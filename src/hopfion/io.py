"""Bit-exact persistence and export formats.

Snapshot layout: magic b"HOPF", format version (u32 LE), metadata length
(u32 LE), UTF-8 JSON metadata, then the payload as raw little-endian
float64, sites ordered x-fastest with components innermost.  Round trips
are bitwise identical regardless of host endianness.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct
import sys
import tempfile

import numpy as np

from . import algebra as alg
from . import fields as fl
from .energy import energy_map
from .errors import ConfigError
from .lattice import Grid, LatticeField
from .minimize import HistoryRow, RelaxConfig

MAGIC = b"HOPF"
FORMAT_VERSION = 1

FIELD_KINDS = ("map_s2", "lift_su2", "potential")


class SnapshotError(Exception):
    pass


def _atomic_write(path, payload):
    """Write bytes, or an iterable of byte chunks, to path in one rename."""
    chunks = (payload,) if isinstance(payload, bytes) else payload
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".hopf-tmp-")
    try:
        with os.fdopen(fd, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _site_payload(values):
    """Sites x-fastest, components innermost: transpose to (z, y, x, comps)."""
    flat = values.reshape(values.shape[:3] + (-1,))
    return np.ascontiguousarray(flat.transpose(2, 1, 0, 3)).astype("<f8")


def write_snapshot(path, obj, extra_meta=None):
    """Write a MapField, LiftField or PotentialField to a snapshot file.

    Only what read_snapshot gives back is written: an su2_u1 field and, for
    a potential, one on the constant map; anything else is a SnapshotError
    before a file is created.
    """
    if isinstance(obj, fl.MapField):
        kind, values = "map_s2", obj.values
    elif isinstance(obj, fl.LiftField):
        kind, values = "lift_su2", obj.values
    elif isinstance(obj, fl.PotentialField):
        kind, values = "potential", obj.a.data
    else:
        raise SnapshotError(f"cannot snapshot object of type {type(obj).__name__}")
    if obj.pair.name != "su2_u1":
        raise SnapshotError(f"a snapshot holds an su2_u1 field, not {obj.pair.name}")
    if kind == "potential" and (obj.phi is None or np.any(obj.phi.values != (1.0, 0.0, 0.0))):
        raise SnapshotError("a potential snapshot holds a potential on the constant map only")
    ncomp = int(np.prod(values.shape[3:]))
    meta = {
        "n": obj.grid.n,
        "length": obj.grid.length,
        "kind": kind,
        "components": ncomp,
        "creator": "hopfion",
        "format": FORMAT_VERSION,
    }
    if extra_meta:
        meta.update(extra_meta)
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    header = MAGIC + struct.pack("<II", FORMAT_VERSION, len(meta_bytes))
    payload = _site_payload(values.reshape(values.shape[:3] + (ncomp,)))
    _atomic_write(path, header + meta_bytes + payload.tobytes())


def _is_count(value):
    return isinstance(value, int) and not isinstance(value, bool)


def validate_meta(meta):
    """Check a snapshot header against its kind before anything is allocated.

    Needs n (an integer >= 4), a positive finite length, a known kind, and
    a component count that fits it: 3 for map_s2, 4 for lift_su2 and 9,
    three slots of su2 coefficients, for potential.
    """
    if not isinstance(meta, dict):
        raise SnapshotError("metadata is not a JSON object")
    missing = [key for key in ("n", "length", "kind", "components") if key not in meta]
    if missing:
        raise SnapshotError(f"metadata lacks {', '.join(missing)}")
    n, length, kind, ncomp = meta["n"], meta["length"], meta["kind"], meta["components"]
    if kind not in FIELD_KINDS:
        raise SnapshotError(f"unknown field kind '{kind}'")
    if not _is_count(n) or n < 4:
        raise SnapshotError(f"grid size n = {n!r} is not an integer >= 4")
    number = isinstance(length, (int, float)) and not isinstance(length, bool)
    if not number or not 0 < length <= sys.float_info.max:
        raise SnapshotError(f"period length = {length!r} is not a positive number")
    fits = _is_count(ncomp) and {"map_s2": ncomp == 3, "lift_su2": ncomp == 4,
                                 "potential": ncomp == 9}[kind]
    if not fits:
        raise SnapshotError(f"{kind} snapshot cannot have {ncomp!r} components")


def read_snapshot(path):
    """Returns (metadata dict, field object)."""
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot: {exc}") from exc
    if blob[:4] != MAGIC:
        raise SnapshotError("bad magic; not a snapshot file")
    if len(blob) < 12:
        raise SnapshotError("truncated header")
    version, meta_len = struct.unpack("<II", blob[4:12])
    if version != FORMAT_VERSION:
        raise SnapshotError(f"unsupported snapshot version {version}")
    if len(blob) < 12 + meta_len:
        raise SnapshotError("truncated metadata")
    try:
        meta = json.loads(blob[12:12 + meta_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"metadata is not UTF-8 JSON: {exc}") from exc
    validate_meta(meta)
    n = meta["n"]
    ncomp = meta["components"]
    raw = memoryview(blob)[12 + meta_len:]
    expected = n ** 3 * ncomp * 8
    if len(raw) != expected:
        raise SnapshotError(f"payload is {len(raw)} bytes, expected {expected}")
    # sites (x, y, z, comps), a view: the field constructors copy it once, into their layout
    values = np.frombuffer(raw, dtype="<f8").reshape(n, n, n, ncomp).transpose(2, 1, 0, 3)
    grid = Grid(n, meta["length"])
    kind = meta["kind"]
    try:  # the constructors refuse NaN, Inf and non-unit values
        if kind == "map_s2":
            return meta, fl.MapField(grid, alg.su2_u1(), values, renormalize=False)
        if kind == "lift_su2":
            return meta, fl.LiftField(grid, alg.su2_u1(), values, renormalize=False)
        a = LatticeField(grid, 1, values.reshape(n, n, n, 3, ncomp // 3))
        return meta, fl.PotentialField(a, fl.constant_map(grid))
    except ValueError as exc:
        raise SnapshotError(f"{kind} payload: {exc}") from exc


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

CONFIG_DEFAULTS = {
    "grid.n": 32,
    "grid.length": 2.0 * np.pi,
    "ansatz.kind": "hopf",
    "ansatz.charge": 1,
    **{f"optimizer.{f.name}": f.default for f in dataclasses.fields(RelaxConfig)},
    "output.dir": "hopfion-out",
}


def parse_config(text):
    """Parse a `key = value` document; unknown keys are a hard error."""
    values = dict(CONFIG_DEFAULTS)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in CONFIG_DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        try:
            values[key] = type(CONFIG_DEFAULTS[key])(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for '{key}': {exc}") from exc
    return values


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def relax_config(values):
    """The RelaxConfig of parsed config values; an invalid value is a ConfigError."""
    return RelaxConfig(**{f.name: values[f"optimizer.{f.name}"]
                          for f in dataclasses.fields(RelaxConfig)})


# ---------------------------------------------------------------------------
# history and export
# ---------------------------------------------------------------------------

def write_history_csv(path, run):
    """One CSV line per HistoryRow, shortest round-trip reprs; no charge is empty."""
    lines = [",".join(HistoryRow._fields)]
    lines += [",".join("" if v is None else repr(v) for v in row) for row in run.history]
    _atomic_write(path, ("\n".join(lines) + "\n").encode("utf-8"))


# rows per `%` formatting call of the ASCII exports; at 4096 the bit sort
# raised the n = 48 VTK export's tracemalloc peak above one repr per value's
_BLOCK_ROWS = 2048


def _text_chunks(head, blocks, sep):
    """head, then one line per row of each 2-d float64 array in blocks, as byte chunks.

    Values go through repr on Python floats, once per distinct bit pattern
    of up to _BLOCK_ROWS rows (-0.0 is not 0.0).
    """
    yield (head + "\n").encode("utf-8")
    for rows in blocks:
        fmt = sep.join(["%s"] * rows.shape[1]) + "\n"
        for start in range(0, len(rows), _BLOCK_ROWS):
            values = rows[start:start + _BLOCK_ROWS].ravel()
            keys, inverse = np.unique(values.view(np.int64), return_inverse=True)
            reprs = np.array(list(map(repr, keys.view(np.float64).tolist())), dtype=object)
            texts = reprs[inverse].tolist()
            yield ((fmt * (len(values) // rows.shape[1])) % tuple(texts)).encode("utf-8")


def _vtk_header(grid, title):
    h = float(grid.h)
    return "\n".join([
        "# vtk DataFile Version 3.0",
        title,
        "ASCII",
        "DATASET STRUCTURED_POINTS",
        f"DIMENSIONS {grid.n} {grid.n} {grid.n}",
        "ORIGIN 0 0 0",
        f"SPACING {h!r} {h!r} {h!r}",
        f"POINT_DATA {grid.n ** 3}",
    ])


def _vtk_chunks(grid, title, blocks):
    yield (_vtk_header(grid, title) + "\n").encode("utf-8")
    for head, values in blocks:
        # VTK structured points iterate x fastest: z-planes, each transposed, so
        # the whole field is never copied
        rows = (values[:, :, z].transpose(1, 0, 2).reshape(-1, values.shape[3])
                for z in range(grid.n))
        yield from _text_chunks(head, rows, " ")


def export_vtk(path, meta, obj):
    """Legacy ASCII STRUCTURED_POINTS export of a snapshot's field."""
    kind = meta["kind"]
    if kind == "map_s2":
        blocks = [("VECTORS psi double", obj.values)]
    elif kind == "lift_su2":
        blocks = [("VECTORS lift_im double", obj.values[..., 1:]),
                  ("SCALARS lift_re double 1\nLOOKUP_TABLE default", obj.values[..., :1])]
    else:  # potential: one vector block per axis slot
        blocks = [(f"VECTORS {label} double", obj.a.slot(mu))
                  for mu, label in enumerate(("a_x", "a_y", "a_z"))]
    _atomic_write(path, _vtk_chunks(obj.grid, f"hopfion {kind}", blocks))


def export_density_csv(path, obj):
    """Energy density per site for maps; squared pointwise norm otherwise."""
    if isinstance(obj, fl.MapField):
        density = energy_map(obj).density.slot(0)[..., 0]
    elif isinstance(obj, fl.LiftField):
        density = np.sum(obj.values * obj.values, axis=-1)
    else:
        density = obj.a.norm2_density()
    rows = (np.column_stack([obj.grid.site_coords(x).reshape(-1, 3), density[x].reshape(-1)])
            for x in range(obj.grid.n))
    _atomic_write(path, _text_chunks("x,y,z,density", rows, ","))
