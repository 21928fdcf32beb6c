"""TDE storage layer: vectors, dictionaries, columns, tables, namespaces.

Mirrors the paper's section 4.1.1: a three-layer namespace
(database → schema → table), column-level dictionary compression (array
compression for fixed-width values, heap compression for variable-width),
lightweight storage encodings (run-length, delta, frame-of-reference) that are invisible
outside this layer, column-level collated strings, and single-file packing
of a whole database.
"""

from .vectors import PlainVector, RleVector, DeltaVector, ForVector, PhysicalVector, encode_best
from .dictionary import Dictionary
from .column import Column
from .table import Table
from .schema import Database, Schema, SYS_SCHEMA
from .filepack import pack_database, unpack_database

__all__ = [
    "PhysicalVector",
    "PlainVector",
    "RleVector",
    "DeltaVector",
    "ForVector",
    "encode_best",
    "Dictionary",
    "Column",
    "Table",
    "Database",
    "Schema",
    "SYS_SCHEMA",
    "pack_database",
    "unpack_database",
]
