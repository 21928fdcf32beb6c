"""Wire format for one result table (the cache tier's payload, paper 3.2).

:mod:`filepack` is the single-file *database* format of paper 4.1.1: a
container of namespaces, columns stored decoded, encodings rebuilt at
load time. A cached result is none of that — one screen-sized table that
crosses a node boundary on every tier hit — so it gets a flat layout
that is written and read without touching a value:

    b"TDER" | version byte | zlib level 1 of:
        u32 header length | header JSON | buffers, back to back

The header carries ``rows``, ``name``, ``sort_keys`` and, per column,
its logical type, collation, and a ``[wire dtype, dtype, bytes]`` triple
for each buffer that follows: the dictionary entries (compressed columns
only), the values — dictionary codes or plain storage values — and the
null mask. A dictionary-compressed column ships its *codes* and only the
dictionary entries its rows use: a result over a 50 000-entry dictionary
holds a handful of them, and a subset of a collation-sorted dictionary
is still sorted, so the reader rebuilds the column from the buffers as
they are. Integers travel in the narrowest width that holds their range;
strings (dictionary entries, uncompressed string columns) as one JSON
array. Nothing is pickled.
"""

from __future__ import annotations

import json
import struct
import zlib

import numpy as np

from ...collation import get_collation
from ...datatypes import LogicalType
from ...errors import StorageError
from .column import Column
from .dictionary import Dictionary
from .table import Table
from .vectors import PlainVector

MAGIC = b"TDER"
WIRE_VERSION = 1

_HEADER_LEN = struct.Struct("<I")
_INT_WIDTHS = tuple(
    (np.dtype(t), np.iinfo(t).min, np.iinfo(t).max) for t in (np.int8, np.int16, np.int32)
)
_JSON = "json"


def _narrow(arr: np.ndarray) -> np.ndarray:
    """``arr`` in the narrowest signed width that holds its range."""
    if arr.dtype.kind not in "iu" or not len(arr):
        return arr
    lo, hi = int(arr.min()), int(arr.max())
    for dtype, least, most in _INT_WIDTHS:
        if dtype.itemsize >= arr.dtype.itemsize:
            break
        if least <= lo and hi <= most:
            return arr.astype(dtype)
    return arr


def encode_table(table: Table) -> bytes:
    """Serialize ``table``; the same table always gives the same bytes."""
    buffers: list[bytes] = []

    def add(arr: np.ndarray) -> list:
        if arr.dtype == object:
            raw, wire = json.dumps(arr.tolist()).encode("ascii"), _JSON
        else:
            narrow = _narrow(arr)
            raw, wire = narrow.tobytes(), narrow.dtype.str
        buffers.append(raw)
        return [wire, arr.dtype.str, len(raw)]

    columns = []
    for name, col in table.columns.items():
        entry = {"name": name, "ltype": col.ltype.value, "collation": col.collation.name}
        values = col.physical.materialize()
        dictionary = col.dictionary
        if dictionary is not None:
            used = np.flatnonzero(np.bincount(values, minlength=len(dictionary)))
            if len(used) < len(dictionary):
                remap = np.zeros(len(dictionary), dtype=values.dtype)
                remap[used] = np.arange(len(used), dtype=values.dtype)
                values = remap[values]
            entry["dictionary"] = add(dictionary.values[used])
        entry["values"] = add(values)
        if col.null_mask is not None:
            entry["mask"] = add(col.null_mask)
        columns.append(entry)
    header = json.dumps(
        {
            "rows": table.n_rows,
            "name": table.name,
            "sort_keys": list(table.sort_keys),
            "columns": columns,
        },
        separators=(",", ":"),
    ).encode("ascii")
    body = b"".join([_HEADER_LEN.pack(len(header)), header, *buffers])
    return MAGIC + bytes([WIRE_VERSION]) + zlib.compress(body, 1)


def decode_table(payload: bytes) -> Table:
    """Rebuild the table :func:`encode_table` wrote.

    Raises :class:`StorageError` for anything that is not a well-formed
    payload of this version; a reader never returns a half-read table.
    """
    prefix = len(MAGIC) + 1
    if len(payload) < prefix or payload[: len(MAGIC)] != MAGIC:
        raise StorageError("not a result payload (bad magic)")
    if payload[len(MAGIC)] != WIRE_VERSION:
        raise StorageError(f"unsupported result payload version {payload[len(MAGIC)]}")
    try:
        return _decode_body(zlib.decompress(payload[prefix:]))
    except (zlib.error, struct.error, ValueError, KeyError, TypeError) as exc:
        raise StorageError(f"malformed result payload: {exc!r}") from exc


def _decode_body(body: bytes) -> Table:
    (header_len,) = _HEADER_LEN.unpack_from(body)
    pos = _HEADER_LEN.size + header_len
    header = json.loads(body[_HEADER_LEN.size : pos])
    rows = header["rows"]

    def take(desc: list, length: int | None = rows) -> np.ndarray:
        nonlocal pos
        wire, dtype, nbytes = desc
        raw = body[pos : pos + nbytes]
        if len(raw) != nbytes:
            raise ValueError("buffer runs past the end of the payload")
        pos += nbytes
        if wire == _JSON:
            strings = json.loads(raw)
            if type(strings) is not list or set(map(type, strings)) - {str}:
                raise ValueError("string buffer is not a list of strings")
            arr = np.empty(len(strings), dtype=object)
            arr[:] = strings
        else:
            arr = np.frombuffer(raw, dtype=wire).astype(dtype, copy=False)
        if length is not None and len(arr) != length:
            raise ValueError(f"buffer of {len(arr)} values for {length} rows")
        return arr

    columns: dict[str, Column] = {}
    for entry in header["columns"]:
        ltype = LogicalType(entry["ltype"])
        collation = get_collation(entry["collation"])
        dictionary = None
        if "dictionary" in entry:
            entries = take(entry["dictionary"], None)
            kind = "heap" if ltype is LogicalType.STR else "array"
            dictionary = Dictionary(entries, kind, collation)
        values = take(entry["values"])
        if dictionary is not None and rows and not (
            0 <= values.min() and values.max() < len(dictionary)
        ):
            raise ValueError("dictionary code out of range")
        columns[entry["name"]] = Column(
            ltype,
            PlainVector(values),
            dictionary=dictionary,
            null_mask=take(entry["mask"]) if "mask" in entry else None,
            collation=collation,
        )
    if pos != len(body) or len(columns) != len(header["columns"]):
        raise ValueError("payload length does not match its header")
    return Table(columns, sort_keys=header["sort_keys"], name=header["name"])
