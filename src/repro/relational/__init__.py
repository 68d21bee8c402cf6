"""A small relational substrate.

Systems A, B and C in the paper are XML stores layered over relational
technology ("Systems A to C are based on relational technology, come with a
cost-based query optimizer...").  This package is what those three store
implementations call:

* :mod:`repro.relational.table` — columnar tables with typed columns, each
  keeping its own hash indexes, key bisection and deleted rows;
* :mod:`repro.relational.catalog` — a named collection of tables; catalog
  lookups are *counted* because metadata access is one of the paper's
  headline observations (Table 2).
"""

from repro.relational.catalog import Catalog
from repro.relational.table import Column, ColumnType, Table

__all__ = [
    "Table", "Column", "ColumnType",
    "Catalog",
]
