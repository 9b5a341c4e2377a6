"""Columnar in-memory table.

A :class:`Table` is a named, schema'd set of equal-length numpy columns.
String columns are dictionary-encoded: the physical array holds int32
codes and the :class:`Column` carries the category list. This keeps
group-by keys, filters, and joins fully vectorized.

Tables are immutable by convention: every operation returns a new Table
that shares (never copies) the untouched column buffers.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from .schema import ColumnSpec, DType, Schema, infer_dtype

__all__ = ["Column", "Table"]


class Column:
    """One column: a physical numpy array plus logical-type metadata.

    A column can be *lazy*: constructed via :meth:`lazy` with a loader
    callable and a known length instead of a materialized array. The
    loader runs once, on first access to :attr:`data`, and its result is
    cached; until then the column answers ``len()`` and schema questions
    without any IO. The mmap storage backend uses this so ``store.get``
    is O(metadata) and untouched columns never open their files.
    """

    __slots__ = ("dtype", "categories", "_data", "_loader", "_length", "_code_index")

    def __init__(self, dtype: DType, data: np.ndarray, categories=None) -> None:
        self.dtype = dtype
        self._data = data
        self._loader = None
        self._length = None
        self._code_index = None
        if dtype is DType.STRING:
            if categories is None:
                raise ValueError("STRING column requires categories")
            self.categories = tuple(categories)
        else:
            if categories is not None:
                raise ValueError("only STRING columns carry categories")
            self.categories = None

    @property
    def data(self) -> np.ndarray:
        """Physical array; materializes a lazy column on first access."""
        if self._data is None:
            value = self._loader()
            # Keep ndarray subclasses (np.memmap stays a mapped view);
            # only coerce genuinely non-array loader results.
            self._data = (
                value if isinstance(value, np.ndarray) else np.asarray(value)
            )
            self._loader = None
        return self._data

    @property
    def materialized(self) -> bool:
        """Whether the physical array has been loaded into the process."""
        return self._data is not None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_values(cls, values, dtype: DType | None = None) -> "Column":
        """Build a column from a python sequence or numpy array."""
        if dtype is None:
            dtype = infer_dtype(values)
        if dtype is DType.STRING:
            return cls.from_strings(values)
        arr = np.asarray(values)
        if dtype is DType.TIMESTAMP and arr.dtype.kind == "M":
            arr = arr.astype("datetime64[s]").astype(np.int64)
        return cls(dtype, np.ascontiguousarray(arr, dtype=dtype.storage_dtype))

    @classmethod
    def from_strings(cls, values) -> "Column":
        values = np.asarray(values, dtype=object)
        categories, codes = np.unique(values.astype(str), return_inverse=True)
        return cls(
            DType.STRING,
            codes.astype(np.int32),
            categories=[str(c) for c in categories],
        )

    @classmethod
    def from_codes(cls, codes: np.ndarray, categories) -> "Column":
        return cls(DType.STRING, np.asarray(codes, dtype=np.int32), categories)

    @classmethod
    def lazy(cls, dtype: DType, loader, length: int, categories=None) -> "Column":
        """Build a column whose array is produced by ``loader()`` on
        first :attr:`data` access. ``length`` must match what the loader
        will return — it is what ``len()`` reports before
        materialization, and what :class:`Table` validates against."""
        col = cls.__new__(cls)
        col.dtype = dtype
        col._data = None
        col._loader = loader
        col._length = int(length)
        col._code_index = None
        if dtype is DType.STRING:
            if categories is None:
                raise ValueError("STRING column requires categories")
            col.categories = tuple(categories)
        else:
            if categories is not None:
                raise ValueError("only STRING columns carry categories")
            col.categories = None
        return col

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        if self._data is None:
            return self._length
        return len(self._data)

    def decode(self) -> np.ndarray:
        """Materialize logical values (strings decoded, timestamps as ints)."""
        if self.dtype is DType.STRING:
            cats = np.asarray(self.categories, dtype=object)
            if len(self.data) == 0:
                return np.empty(0, dtype=object)
            return cats[self.data]
        return self.data

    def values_numeric(self) -> np.ndarray:
        """Numeric view for aggregation; raises for strings."""
        if self.dtype is DType.STRING:
            raise TypeError("cannot aggregate a STRING column numerically")
        if self.dtype is DType.BOOL:
            return self.data.astype(np.float64)
        return self.data

    def code_for(self, value: str) -> int:
        """Dictionary code of ``value``, or -1 if absent from the column.

        Sits on the equality-predicate fast path, so the category→code
        map is built once per column and memoized instead of scanning
        ``categories`` linearly on every call.
        """
        if self._code_index is None:
            self._code_index = {c: i for i, c in enumerate(self.categories)}
        return self._code_index.get(str(value), -1)

    def take(self, indices: np.ndarray) -> "Column":
        return Column(self.dtype, self.data[indices], self.categories)

    def filter(self, mask: np.ndarray) -> "Column":
        return self.take(np.flatnonzero(mask))

    def concat(self, other: "Column") -> "Column":
        """Concatenate two columns of the same logical type."""
        if self.dtype is not other.dtype:
            raise TypeError(f"cannot concat {self.dtype} with {other.dtype}")
        if self.dtype is DType.STRING:
            if self.categories == other.categories:
                return Column(
                    self.dtype,
                    np.concatenate([self.data, other.data]),
                    self.categories,
                )
            merged = list(self.categories)
            index = {c: i for i, c in enumerate(merged)}
            remap = np.empty(len(other.categories), dtype=np.int32)
            for i, cat in enumerate(other.categories):
                if cat not in index:
                    index[cat] = len(merged)
                    merged.append(cat)
                remap[i] = index[cat]
            other_codes = remap[other.data] if len(other.data) else other.data
            return Column(
                self.dtype,
                np.concatenate([self.data, other_codes]),
                merged,
            )
        return Column(self.dtype, np.concatenate([self.data, other.data]))

    # ------------------------------------------------------------------
    # pickling (lazy loaders are closures over file handles/paths and do
    # not pickle; a column crossing a process boundary materializes)
    # ------------------------------------------------------------------
    def __getstate__(self):
        return (self.dtype, np.asarray(self.data), self.categories)

    def __setstate__(self, state):
        dtype, data, categories = state
        self.dtype = dtype
        self._data = data
        self._loader = None
        self._length = None
        self._code_index = None
        self.categories = categories

    def __repr__(self) -> str:
        lazy = "" if self.materialized else ", lazy"
        return f"Column({self.dtype.value}, n={len(self)}{lazy})"


class Table:
    """Immutable columnar table.

    ``cache_token`` marks a table as one immutable published incarnation
    (the warehouse stamps sample tables with
    ``(scope, sample_name, version)``, the AQP session stamps registered
    base tables with ``("table", name, serial)``), which lets the
    group-code cache in :mod:`repro.engine.groupcache` reuse
    factorizations across queries. Every derived table
    (filter/take/select/...) is a new object whose token defaults to
    ``None``, so derived row sets can never alias a cached entry.
    """

    def __init__(self, columns: Mapping[str, Column], name: str = "") -> None:
        self._columns = dict(columns)
        self.name = name
        self.cache_token = None
        lengths = {len(c) for c in self._columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"ragged columns: lengths {sorted(lengths)}")
        self._nrows = lengths.pop() if lengths else 0
        self._schema = Schema(
            ColumnSpec(name, col.dtype) for name, col in self._columns.items()
        )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_pydict(cls, data: Mapping[str, Sequence], name: str = "") -> "Table":
        """Build a table from ``{column_name: values}``; types inferred."""
        return cls(
            {col: Column.from_values(vals) for col, vals in data.items()},
            name=name,
        )

    @classmethod
    def empty_like(cls, other: "Table") -> "Table":
        cols = {}
        for cname in other.column_names:
            col = other.column(cname)
            # storage_dtype avoids touching col.data (lazy columns stay lazy)
            cols[cname] = Column(
                col.dtype,
                np.empty(0, dtype=col.dtype.storage_dtype),
                col.categories,
            )
        return cls(cols, name=other.name)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def num_rows(self) -> int:
        return self._nrows

    @property
    def column_names(self) -> tuple:
        return tuple(self._columns.keys())

    def __len__(self) -> int:
        return self._nrows

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def column(self, name: str) -> Column:
        try:
            return self._columns[name]
        except KeyError:
            raise KeyError(
                f"no column {name!r}; available: {', '.join(self.column_names)}"
            ) from None

    def __getitem__(self, name: str) -> np.ndarray:
        """Decoded values of one column (convenience for tests/examples)."""
        return self.column(name).decode()

    # ------------------------------------------------------------------
    # relational operations (all return new tables)
    # ------------------------------------------------------------------
    def select(self, names: Iterable[str]) -> "Table":
        names = list(names)
        return Table({n: self.column(n) for n in names}, name=self.name)

    def with_column(self, name: str, column: Column) -> "Table":
        if len(column) != self._nrows:
            raise ValueError(
                f"column {name!r} has {len(column)} rows, table has {self._nrows}"
            )
        cols = dict(self._columns)
        cols[name] = column
        return Table(cols, name=self.name)

    def without_columns(self, names: Iterable[str]) -> "Table":
        drop = set(names)
        return Table(
            {n: c for n, c in self._columns.items() if n not in drop},
            name=self.name,
        )

    def rename(self, mapping: Mapping[str, str]) -> "Table":
        cols = {}
        for n, c in self._columns.items():
            cols[mapping.get(n, n)] = c
        return Table(cols, name=self.name)

    def filter(self, mask: np.ndarray) -> "Table":
        mask = np.asarray(mask)
        if mask.dtype != np.bool_:
            raise TypeError("filter mask must be boolean")
        if len(mask) != self._nrows:
            raise ValueError("mask length does not match table")
        # Row indices once, then a gather per column: several times
        # faster than boolean indexing each column on large tables.
        return self.take(np.flatnonzero(mask))

    def take(self, indices: np.ndarray) -> "Table":
        indices = np.asarray(indices)
        return Table(
            {n: c.take(indices) for n, c in self._columns.items()}, name=self.name
        )

    def head(self, n: int) -> "Table":
        return self.take(np.arange(min(n, self._nrows)))

    def concat(self, other: "Table") -> "Table":
        """Vertically stack two tables with identical column names."""
        if set(self.column_names) != set(other.column_names):
            raise ValueError("concat requires identical column sets")
        return Table(
            {n: self.column(n).concat(other.column(n)) for n in self.column_names},
            name=self.name,
        )

    def duplicate(self, times: int) -> "Table":
        """Stack the table onto itself ``times`` times (paper's OpenAQ-25x)."""
        if times < 1:
            raise ValueError("times must be >= 1")
        cols = {}
        for n in self.column_names:
            col = self.column(n)
            cols[n] = Column(
                col.dtype, np.tile(col.data, times), col.categories
            )
        return Table(cols, name=self.name)

    # ------------------------------------------------------------------
    # interchange
    # ------------------------------------------------------------------
    def to_pydict(self) -> dict:
        return {n: list(self.column(n).decode()) for n in self.column_names}

    def row(self, i: int) -> dict:
        return {n: self.column(n).decode()[i] for n in self.column_names}

    def iter_rows(self):
        decoded = {n: self.column(n).decode() for n in self.column_names}
        for i in range(self._nrows):
            yield {n: decoded[n][i] for n in self.column_names}

    # ------------------------------------------------------------------
    # persistence (npz, columnar)
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        payload = {"__name__": np.asarray([self.name])}
        for n in self.column_names:
            col = self.column(n)
            payload[f"data::{n}"] = col.data
            payload[f"type::{n}"] = np.asarray([col.dtype.value])
            if col.categories is not None:
                payload[f"cats::{n}"] = np.asarray(col.categories, dtype=object)
        np.savez_compressed(path, **payload, allow_pickle=True)

    @classmethod
    def load(cls, path, columns=None) -> "Table":
        """Load an npz table. ``columns`` restricts which members are
        decompressed (npz decodes per member on access, so skipped
        columns cost nothing); ``None`` loads everything."""
        wanted = None if columns is None else set(columns)
        with np.load(path, allow_pickle=True) as npz:
            name = str(npz["__name__"][0]) if "__name__" in npz else ""
            cols = {}
            for key in npz.files:
                if not key.startswith("data::"):
                    continue
                cname = key[len("data::"):]
                if wanted is not None and cname not in wanted:
                    continue
                dtype = DType(str(npz[f"type::{cname}"][0]))
                cats = None
                if f"cats::{cname}" in npz.files:
                    cats = [str(c) for c in npz[f"cats::{cname}"]]
                cols[cname] = Column(dtype, npz[key], cats)
        return cls(cols, name=name)

    def __repr__(self) -> str:
        return (
            f"Table(name={self.name!r}, rows={self._nrows}, "
            f"columns=[{', '.join(self.column_names)}])"
        )
