"""Independent numpy reference for the benchmark's group-by queries.

Nothing here calls the program's engine: a query is a :class:`Query`
spec (group keys, aggregates, conjunctive filter), rendered to SQL text
for the server and evaluated here directly over the generated columns
with ``np.unique`` + ``np.bincount``. Answers from the server are then
compared cell by cell:

* :func:`exact_mismatches` — an exact answer must have exactly the
  reference's groups and every cell within ``1e-9`` relative;
* :func:`relative_errors` — the paper's per-group relative error of an
  approximate answer; a reference group missing from the answer counts
  as error 1.0, and a group the reference does not have is a wrong
  answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Marker the engine writes for a rolled-up key in ``WITH CUBE`` rows.
ALL = "<ALL>"

EXACT_RTOL = 1e-9

_SECONDS_PER_HOUR = 3600


@dataclass(frozen=True)
class Query:
    """One group-by query over the ``OpenAQ`` table.

    ``aggs`` holds ``(alias, func, column)`` with ``func`` one of
    ``SUM``, ``AVG``, ``COUNT`` (column ``*``); ``where`` holds
    ``(column, op, literal)`` conjuncts with ``op`` one of ``>``, ``<``
    and ``BETWEEN`` (literal a pair). The column ``HOUR(local_time)``
    is the hour of day of the timestamp column.
    """

    keys: Tuple[str, ...]
    aggs: Tuple[Tuple[str, str, str], ...]
    where: Tuple[Tuple[str, str, object], ...] = ()
    cube: bool = False
    max_cv: Optional[float] = None
    expect: str = "approximate"
    verify: bool = False
    tag: str = ""
    limit: Optional[int] = None

    @property
    def sql(self) -> str:
        select = ", ".join(
            list(self.keys)
            + [f"{f}({c}) AS {alias}" for alias, f, c in self.aggs]
        )
        text = f"SELECT {select} FROM OpenAQ"
        if self.where:
            text += " WHERE " + " AND ".join(
                _predicate_sql(c, op, lit) for c, op, lit in self.where
            )
        text += " GROUP BY " + ", ".join(self.keys)
        if self.cube:
            text += " WITH CUBE"
        return text

    def body(self) -> Dict:
        """The ``POST /query`` request body."""
        body: Dict = {"sql": self.sql}
        if self.max_cv is not None:
            body["max_cv"] = self.max_cv
        if self.limit is not None:
            body["limit"] = self.limit
        return body


def _literal(value) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)


def _predicate_sql(column: str, op: str, literal) -> str:
    if op == "BETWEEN":
        lo, hi = literal
        return f"{column} BETWEEN {_literal(lo)} AND {_literal(hi)}"
    return f"{column} {op} {_literal(literal)}"


class Reference:
    """The generated table as plain numpy columns, for reference answers.

    ``columns`` maps a column name to its stored array (integer codes
    for string columns) and ``categories`` maps a string column to its
    code -> label array.
    """

    def __init__(
        self, columns: Dict[str, np.ndarray], categories: Dict[str, np.ndarray]
    ) -> None:
        self.columns = columns
        self.categories = categories
        self.num_rows = len(next(iter(columns.values())))

    def head(self, n: int) -> "Reference":
        return Reference(
            {k: v[:n] for k, v in self.columns.items()}, self.categories
        )

    def _values(self, column: str) -> np.ndarray:
        if column == "HOUR(local_time)":
            return (self.columns["local_time"] // _SECONDS_PER_HOUR) % 24
        return self.columns[column]

    def _mask(self, where) -> np.ndarray:
        mask = np.ones(self.num_rows, dtype=bool)
        for column, op, literal in where:
            values = self._values(column)
            if op == ">":
                mask &= values > literal
            elif op == "<":
                mask &= values < literal
            elif op == "BETWEEN":
                mask &= (values >= literal[0]) & (values <= literal[1])
            else:
                raise ValueError(f"unsupported operator {op!r}")
        return mask

    def answer(self, query: Query) -> Dict[Tuple[str, ...], Tuple[float, ...]]:
        """``{group key labels: aggregate values}`` for ``query``."""
        mask = self._mask(query.where)
        if query.cube:
            sets = [
                [k for k, keep in zip(query.keys, bits) if keep]
                for bits in np.ndindex(*([2] * len(query.keys)))
            ]
        else:
            sets = [list(query.keys)]
        out: Dict[Tuple[str, ...], Tuple[float, ...]] = {}
        for grouping in sets:
            out.update(self._grouped(query, grouping, mask))
        return out

    def _grouped(self, query: Query, grouping: Sequence[str], mask):
        n = int(mask.sum())
        if n == 0:
            return {}
        # One mixed-radix int64 code per row over the grouping columns.
        combined = np.zeros(n, dtype=np.int64)
        for k in grouping:
            combined = combined * len(self.categories[k]) + self.columns[k][
                mask
            ].astype(np.int64)
        uniq, inverse = np.unique(combined, return_inverse=True)
        inverse = inverse.reshape(-1)
        ngroups = len(uniq)
        labels = {}
        rest = uniq
        for k in reversed(grouping):
            rest, code = np.divmod(rest, len(self.categories[k]))
            labels[k] = self.categories[k][code]
        counts = np.bincount(inverse, minlength=ngroups).astype(np.float64)
        results = []
        for _alias, func, column in query.aggs:
            if func == "COUNT":
                results.append(counts)
                continue
            sums = np.bincount(
                inverse, weights=self.columns[column][mask],
                minlength=ngroups,
            )
            if func == "SUM":
                results.append(sums)
            elif func == "AVG":
                results.append(sums / counts)
            else:
                raise ValueError(f"unsupported aggregate {func!r}")
        out = {}
        for g in range(ngroups):
            key = tuple(
                str(labels[k][g]) if k in labels else ALL
                for k in query.keys
            )
            out[key] = tuple(float(r[g]) for r in results)
        return out


def payload_answer(query: Query, payload: Dict):
    """``{group key labels: aggregate values}`` from a ``/query``
    response body; raises ``KeyError``/``ValueError`` on a malformed
    body."""
    columns = payload["columns"]
    key_idx = [columns.index(k) for k in query.keys]
    agg_idx = [columns.index(alias) for alias, _f, _c in query.aggs]
    out = {}
    for row in payload["rows"]:
        key = tuple(str(row[i]) for i in key_idx)
        out[key] = tuple(float(row[i]) for i in agg_idx)
    return out


def exact_mismatches(reference: Dict, answer: Dict) -> List[str]:
    """Reasons an exact answer differs from the reference (empty when
    it matches to :data:`EXACT_RTOL`)."""
    problems = []
    missing = reference.keys() - answer.keys()
    extra = answer.keys() - reference.keys()
    if missing:
        problems.append(f"{len(missing)} groups missing")
    if extra:
        problems.append(f"{len(extra)} unexpected groups")
    for key in reference.keys() & answer.keys():
        for want, got in zip(reference[key], answer[key]):
            if abs(got - want) > EXACT_RTOL * max(abs(want), 1e-300):
                problems.append(f"group {key}: {got!r} != {want!r}")
                break
    return problems


def relative_errors(reference: Dict, answer: Dict) -> Tuple[List[float], int]:
    """Per-(group, aggregate) relative errors of an approximate answer,
    plus the number of answer groups absent from the reference."""
    errors: List[float] = []
    for key, wants in reference.items():
        got = answer.get(key)
        for i, want in enumerate(wants):
            if got is None:
                errors.append(1.0)
            elif want == 0.0:
                errors.append(0.0 if got[i] == 0.0 else 1.0)
            else:
                errors.append(abs(got[i] - want) / abs(want))
    return errors, len(answer.keys() - reference.keys())
