"""Single-file packing of a TDE database (paper 4.1.1).

"The TDE has a simple on-disk storage layout, which makes packing the entire
database into a single file easy. ... This directory is packaged into a
single file once created."

We mirror the directory-per-namespace layout inside a ZIP container:

    manifest.json
    <schema>/<table>/<column>.npy        (fixed-width storage values)
    <schema>/<table>/<column>.json       (string values, heap side)
    <schema>/<table>/<column>.mask.npy   (null mask, when any NULLs)

Columns are stored decoded; dictionary compression and each column's
encoding are rebuilt at load time from recorded hints, which keeps the
format simple and version-tolerant at the cost of some load-time work.
"""

from __future__ import annotations

import io
import json
import zipfile
from pathlib import Path

import numpy as np

from ...collation import get_collation
from ...datatypes import LogicalType
from ...errors import StorageError
from .column import Column
from .schema import Database
from .table import Table

FORMAT_VERSION = 1


def pack_database(db: Database, path) -> None:
    """Write ``db`` to a single file at ``path`` (path or binary file object)."""
    if isinstance(path, (str, Path)):
        path = Path(path)
    manifest: dict = {"version": FORMAT_VERSION, "name": db.name, "schemas": {}}
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_DEFLATED) as zf:
        for schema_name, table_name, table in db.iter_tables():
            schema_entry = manifest["schemas"].setdefault(schema_name, {"tables": {}})
            col_entries = []
            for col_name, col in table.columns.items():
                entry = {
                    "name": col_name,
                    "type": col.ltype.value,
                    "collation": col.collation.name,
                    "compressed": col.is_dictionary_encoded,
                    "encoding": col.encoding if len(col) else "plain",
                    "has_nulls": col.null_mask is not None,
                }
                base = f"{schema_name}/{table_name}/{col_name}"
                storage = col.storage_values()
                if col.ltype is LogicalType.STR:
                    zf.writestr(f"{base}.json", json.dumps(list(storage)))
                else:
                    zf.writestr(f"{base}.npy", _npy_bytes(storage))
                if col.null_mask is not None:
                    zf.writestr(f"{base}.mask.npy", _npy_bytes(col.null_mask))
                col_entries.append(entry)
            schema_entry["tables"][table_name] = {
                "sort_keys": list(table.sort_keys),
                "row_count": table.n_rows,
                "columns": col_entries,
            }
        zf.writestr("manifest.json", json.dumps(manifest, indent=1))


def unpack_database(path) -> Database:
    """Load a database previously written by :func:`pack_database`.

    Accepts a filesystem path or a binary file object.
    """
    if isinstance(path, (str, Path)):
        path = Path(path)
        if not path.exists():
            raise StorageError(f"no database file at {path}")
    with zipfile.ZipFile(path, "r") as zf:
        try:
            manifest = json.loads(zf.read("manifest.json"))
        except KeyError:
            raise StorageError(f"{path} is not a packed TDE database") from None
        if manifest.get("version") != FORMAT_VERSION:
            raise StorageError(f"unsupported format version {manifest.get('version')}")
        db = Database(manifest["name"])
        for schema_name, schema_entry in manifest["schemas"].items():
            for table_name, table_entry in schema_entry["tables"].items():
                cols: dict[str, Column] = {}
                for entry in table_entry["columns"]:
                    col_name = entry["name"]
                    ltype = LogicalType(entry["type"])
                    base = f"{schema_name}/{table_name}/{col_name}"
                    if ltype is LogicalType.STR:
                        raw = json.loads(zf.read(f"{base}.json"))
                        values = np.empty(len(raw), dtype=object)
                        values[:] = raw
                    else:
                        values = _read_npy(zf, f"{base}.npy")
                    mask = _read_npy(zf, f"{base}.mask.npy") if entry["has_nulls"] else None
                    hint = entry["encoding"] if len(values) else None
                    cols[col_name] = Column.from_numpy(
                        values,
                        ltype,
                        null_mask=mask,
                        collation=get_collation(entry["collation"]),
                        compress=entry["compressed"],
                        encoding=hint,
                    )
                table = Table(
                    cols, sort_keys=table_entry["sort_keys"], name=f"{schema_name}.{table_name}"
                )
                db.add_table(f"{schema_name}.{table_name}", table)
    return db


def _npy_bytes(arr: np.ndarray) -> bytes:
    buf = io.BytesIO()
    np.save(buf, arr, allow_pickle=False)
    return buf.getvalue()


def _read_npy(zf: zipfile.ZipFile, name: str) -> np.ndarray:
    return np.load(io.BytesIO(zf.read(name)), allow_pickle=False)
