"""Physical operators: executable counterparts of the logical plan.

Every operator consumes and produces a :class:`Relation` — a
:class:`~repro.engine.table.Table` plus the FROM-clause bindings used to
resolve qualified column references. Operators keep the engine's
vectorized numpy kernels; the per-clause ``_execute_*`` helpers of the
old monolithic executor live on here as composable classes.

Every grouping goes through one entry point,
:func:`~repro.engine.groupby.compute_group_keys`, which owns the one
group-by cost rule: per-column codes come from ``factorize`` (direct
addressing or ``np.unique`` by value domain), and the exact combined
keyspace picks combined codes or a lexsort over the per-column codes.
It also serves stamped tables from the group-code cache, so operators
make no grouping decision of their own.

The aggregation operators fuse a :class:`FilterOp` child: when every
group key is a stored column, the ``WHERE`` predicate is evaluated once
into a row mask that grouping (:func:`~repro.engine.groupby.compute_group_keys`)
and :func:`masked_rows` apply, so a filtered group-by never copies the
whole input table and still reads cached group codes of the unfiltered
table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..aggregates import compute_aggregate
from ..expr import (
    AggCall,
    BinOp,
    ColumnRef,
    Expr,
    Star,
    collect_agg_calls,
    collect_column_refs,
    evaluate,
    evaluate_predicate,
    expr_to_sql,
    rewrite,
)
from ..groupby import (
    ALL_MARKER,
    GroupKeys,
    compute_group_keys,
    cube_grouping_sets,
)
from ..join import hash_join
from ..schema import DType
from ..table import Column, Table
from .ast import OrderItem, SelectItem
from .errors import QueryExecutionError
from . import planner as lp

__all__ = [
    "Relation",
    "PhysicalOperator",
    "ScanOp",
    "DualOp",
    "SubqueryOp",
    "JoinOp",
    "FilterOp",
    "ProjectOp",
    "GroupAggregateOp",
    "CubeAggregateOp",
    "OrderByOp",
    "LimitOp",
    "WithCTEOp",
    "compile_plan",
    "masked_rows",
    "sort_permutation",
    "PhysicalPlan",
]


@dataclass
class Relation:
    """A table flowing between operators, plus its FROM bindings."""

    table: Table
    bindings: List[str]


class PhysicalOperator:
    """Base class: ``execute(catalog) -> Relation``."""

    def execute(self, catalog: dict) -> Relation:
        raise NotImplementedError


# ----------------------------------------------------------------------
# source operators
# ----------------------------------------------------------------------
_DUAL = Table({"__dual__": Column(DType.INT64, np.zeros(1, dtype=np.int64))})


@dataclass
class ScanOp(PhysicalOperator):
    table: str
    binding: str

    def execute(self, catalog: dict) -> Relation:
        if self.table not in catalog:
            raise QueryExecutionError(
                f"unknown table {self.table!r}; "
                f"known: {', '.join(sorted(catalog))}"
            )
        return Relation(catalog[self.table], [self.binding])


class DualOp(PhysicalOperator):
    def execute(self, catalog: dict) -> Relation:
        return Relation(_DUAL, [])


@dataclass
class SubqueryOp(PhysicalOperator):
    child: PhysicalOperator
    binding: str

    def execute(self, catalog: dict) -> Relation:
        inner = self.child.execute(catalog)
        return Relation(inner.table, [self.binding])


@dataclass
class WithCTEOp(PhysicalOperator):
    name: str
    definition: PhysicalOperator
    body: PhysicalOperator

    def execute(self, catalog: dict) -> Relation:
        extended = dict(catalog)
        extended[self.name] = self.definition.execute(catalog).table
        return self.body.execute(extended)


@dataclass
class JoinOp(PhysicalOperator):
    left: PhysicalOperator
    right: PhysicalOperator
    condition: Expr
    weight_column: Optional[str] = None

    def execute(self, catalog: dict) -> Relation:
        left = self.left.execute(catalog)
        right = self.right.execute(catalog)

        if (
            self.weight_column
            and self.weight_column in left.table
            and self.weight_column in right.table
        ):
            raise QueryExecutionError(
                "cannot join two weighted samples: sampling for joins is "
                "future work in the paper (Section 8)"
            )

        equalities, residual = _split_join_condition(self.condition)
        left_keys, right_keys = [], []
        for lhs, rhs in equalities:
            placed = _place_equality(
                lhs, rhs, left.table, left.bindings, right.table, right.bindings
            )
            if placed is None:
                residual.append(BinOp("=", lhs, rhs))
            else:
                left_keys.append(placed[0])
                right_keys.append(placed[1])
        if not left_keys:
            raise QueryExecutionError(
                "JOIN ... ON requires at least one cross-side equality"
            )

        left_alias = left.bindings[0] if len(left.bindings) == 1 else "left"
        right_alias = right.bindings[0] if len(right.bindings) == 1 else "right"
        joined = hash_join(
            left.table, right.table, left_keys, right_keys,
            left_alias=left_alias, right_alias=right_alias,
        )
        bindings = left.bindings + right.bindings
        for condition in residual:
            predicate = _resolve_expr(condition, joined, bindings)
            joined = joined.filter(evaluate_predicate(predicate, joined))
        return Relation(joined, bindings)


def _split_join_condition(condition: Expr):
    """Flatten an AND-tree into (equality pairs, residual predicates)."""
    equalities, residual = [], []
    stack = [condition]
    while stack:
        node = stack.pop()
        if isinstance(node, BinOp) and node.op == "AND":
            stack.append(node.left)
            stack.append(node.right)
        elif (
            isinstance(node, BinOp)
            and node.op == "="
            and isinstance(node.left, ColumnRef)
            and isinstance(node.right, ColumnRef)
        ):
            equalities.append((node.left, node.right))
        else:
            residual.append(node)
    return equalities, residual


def _place_equality(lhs, rhs, left, left_bindings, right, right_bindings):
    """Assign an equality's two refs to the join sides, or None."""
    lhs_left = _try_resolve_name(lhs.name, left, left_bindings)
    lhs_right = _try_resolve_name(lhs.name, right, right_bindings)
    rhs_left = _try_resolve_name(rhs.name, left, left_bindings)
    rhs_right = _try_resolve_name(rhs.name, right, right_bindings)
    if lhs_left and rhs_right:
        return lhs_left, rhs_right
    if rhs_left and lhs_right:
        return rhs_left, lhs_right
    return None


# ----------------------------------------------------------------------
# column-reference resolution
# ----------------------------------------------------------------------
def _try_resolve_name(name: str, table: Table, bindings) -> Optional[str]:
    if name in table:
        return name
    if "." in name:
        prefix, rest = name.split(".", 1)
        if prefix in bindings and rest in table:
            return rest
    qualified = [c for c in table.column_names if c.endswith("." + name)]
    if qualified:
        return qualified[0]  # leftmost source wins (documented dialect rule)
    return None


def _resolve_name(name: str, table: Table, bindings) -> str:
    resolved = _try_resolve_name(name, table, bindings)
    if resolved is None:
        raise QueryExecutionError(
            f"cannot resolve column {name!r}; "
            f"available: {', '.join(table.column_names)}"
        )
    return resolved


def _resolve_expr(expr: Expr, table: Table, bindings) -> Expr:
    mapping = {}
    for ref in collect_column_refs(expr):
        if ref in mapping:
            continue
        mapping[ref] = ColumnRef(_resolve_name(ref.name, table, bindings))
    return rewrite(expr, mapping)


# ----------------------------------------------------------------------
# row-wise operators
# ----------------------------------------------------------------------
@dataclass
class FilterOp(PhysicalOperator):
    child: PhysicalOperator
    predicate: Expr

    def execute(self, catalog: dict) -> Relation:
        rel = self.child.execute(catalog)
        return Relation(rel.table.filter(self.mask(rel)), rel.bindings)

    def mask(self, rel: Relation) -> np.ndarray:
        """The predicate over ``rel`` as a boolean row mask."""
        predicate = _resolve_expr(self.predicate, rel.table, rel.bindings)
        return evaluate_predicate(predicate, rel.table)


@dataclass
class ProjectOp(PhysicalOperator):
    child: PhysicalOperator
    items: Tuple[SelectItem, ...]
    weight_column: Optional[str] = None

    def execute(self, catalog: dict) -> Relation:
        rel = self.child.execute(catalog)
        working, bindings = rel.table, rel.bindings
        out = {}
        for i, item in enumerate(self.items):
            expr = _resolve_expr(item.expr, working, bindings)
            name = item.alias or _output_name(item.expr, i)
            if isinstance(expr, ColumnRef):
                out[name] = working.column(expr.name)
            else:
                out[name] = _column_from_array(evaluate(expr, working))
        if (
            self.weight_column
            and self.weight_column in working
            and self.weight_column not in out
        ):
            out[self.weight_column] = working.column(self.weight_column)
        return Relation(Table(out), bindings)


def _output_name(expr: Expr, index: int) -> str:
    if isinstance(expr, ColumnRef):
        return expr.name.split(".")[-1]
    return expr_to_sql(expr)


def _column_from_array(arr: np.ndarray) -> Column:
    arr = np.asarray(arr)
    if arr.dtype.kind in ("O", "U", "S"):
        return Column.from_strings(arr)
    if arr.dtype.kind == "b":
        return Column(DType.BOOL, arr)
    if arr.dtype.kind in ("i", "u"):
        return Column(DType.INT64, arr.astype(np.int64))
    return Column(DType.FLOAT64, arr.astype(np.float64))


def masked_rows(table: Table, mask: np.ndarray, exprs, extra=()) -> Table:
    """The rows ``mask`` keeps, narrowed to the columns ``exprs``
    reference plus the ``extra`` column names present in ``table``.

    What a fused filter copies instead of the whole input: evaluating
    ``exprs`` over the result equals evaluating them over
    ``table.filter(mask)``.
    """
    needed = {ref.name for expr in exprs for ref in collect_column_refs(expr)}
    needed.update(extra)
    keep = [name for name in table.column_names if name in needed]
    if not keep:
        return _empty_context(int(np.count_nonzero(mask)))
    return table.select(keep).filter(mask)


# ----------------------------------------------------------------------
# aggregation operators
# ----------------------------------------------------------------------
@dataclass
class _AggregateState:
    """Everything the grouping kernels need, resolved from the input."""

    working: Table
    mask: Optional[np.ndarray]  # fused WHERE over ``working``'s rows
    bindings: list
    key_names: list
    key_exprs: dict  # resolved group expr -> working column name
    agg_calls: list
    agg_inputs: list
    placeholders: dict
    weights: Optional[np.ndarray]
    alias_map: dict


class _AggregateBase(PhysicalOperator):
    """Shared analysis for plain and CUBE group-aggregate operators."""

    def __init__(
        self,
        child: PhysicalOperator,
        group_by: Tuple[Expr, ...],
        items: Tuple[SelectItem, ...],
        having: Optional[Expr] = None,
        weight_column: Optional[str] = None,
    ) -> None:
        self.child = child
        self.group_by = tuple(group_by)
        self.items = tuple(items)
        self.having = having
        self.weight_column = weight_column

    def _group_keys(self, state: _AggregateState, key_names) -> GroupKeys:
        return compute_group_keys(state.working, key_names, state.mask)

    def _prepare(self, catalog: dict) -> _AggregateState:
        """Resolve keys and aggregate inputs over the child's rows.

        A :class:`FilterOp` child is fused when every group key is a
        stored column: its predicate becomes ``state.mask`` over the
        unfiltered ``working`` table, and only the aggregate inputs and
        weights are masked. Derived keys filter the input first.
        """
        fused = isinstance(self.child, FilterOp)
        rel = (self.child.child if fused else self.child).execute(catalog)
        mask = self.child.mask(rel) if fused else None
        working, bindings = rel.table, rel.bindings
        alias_map = {
            item.alias: item.expr for item in self.items if item.alias
        }
        resolved_keys = []
        for expr in self.group_by:
            if isinstance(expr, ColumnRef) and expr.name in alias_map:
                expr = alias_map[expr.name]
            resolved_keys.append(_resolve_expr(expr, working, bindings))
        if mask is not None and not all(
            isinstance(key, ColumnRef) for key in resolved_keys
        ):
            working, mask = working.filter(mask), None

        # Group keys: plain refs use the table column; computed keys
        # become derived columns.
        key_names = []
        key_exprs = {}
        derived = 0
        for resolved in resolved_keys:
            if isinstance(resolved, ColumnRef):
                key_names.append(resolved.name)
                key_exprs[resolved] = resolved.name
            else:
                name = f"__key_{derived}"
                derived += 1
                working = working.with_column(
                    name, _column_from_array(evaluate(resolved, working))
                )
                key_names.append(name)
                key_exprs[resolved] = name

        # Collect every aggregate call in SELECT + HAVING, deduplicated.
        agg_calls = []
        for item in self.items:
            agg_calls.extend(collect_agg_calls(item.expr))
        if self.having is not None:
            agg_calls.extend(collect_agg_calls(self.having))
        agg_calls = list(dict.fromkeys(agg_calls))
        args = [
            None
            if isinstance(call.arg, Star) or call.arg is None
            else _resolve_expr(call.arg, working, bindings)
            for call in agg_calls
        ]

        rows = working
        if mask is not None:
            rows = masked_rows(
                working,
                mask,
                [arg for arg in args if arg is not None],
                [self.weight_column] if self.weight_column else (),
            )
        weights = None
        if self.weight_column and self.weight_column in rows:
            weights = rows.column(self.weight_column).values_numeric()

        agg_inputs = []
        for call, arg in zip(agg_calls, args):
            if arg is None:
                agg_inputs.append((call.func, None))
            else:
                values = evaluate(arg, rows)
                if values.dtype.kind in ("O", "U", "S"):
                    raise QueryExecutionError(
                        "cannot aggregate string expression "
                        f"{expr_to_sql(call.arg)}"
                    )
                agg_inputs.append((call.func, values))

        placeholders = {
            call: ColumnRef(f"__agg_{i}") for i, call in enumerate(agg_calls)
        }
        return _AggregateState(
            working=working,
            mask=mask,
            bindings=bindings,
            key_names=key_names,
            key_exprs=key_exprs,
            agg_calls=agg_calls,
            agg_inputs=agg_inputs,
            placeholders=placeholders,
            weights=weights,
            alias_map=alias_map,
        )


class GroupAggregateOp(_AggregateBase):
    """``GROUP BY`` (or full-table) aggregation over factorized groups."""

    def execute(self, catalog: dict) -> Relation:
        state = self._prepare(catalog)
        working = state.working
        keys = self._group_keys(state, state.key_names)
        num_groups = keys.num_groups
        if not state.key_names and num_groups == 0:
            # SQL semantics: a full-table aggregate over zero rows still
            # returns one row (COUNT = 0, SUM = 0, AVG = NULL/NaN).
            num_groups = 1
        if state.key_names:
            gtable = Table(
                {
                    name: keys.key_column(working, name)
                    for name in state.key_names
                }
            )
        else:
            gtable = _empty_context(num_groups)
        extra = {}
        for i, (func, values) in enumerate(state.agg_inputs):
            extra[f"__agg_{i}"] = compute_aggregate(
                func, values, keys.gids, num_groups, state.weights
            )
        return Relation(
            self._assemble_group_output(state, gtable, extra),
            state.bindings,
        )

    def _assemble_group_output(self, state, gtable, extra) -> Table:
        if self.having is not None:
            having = _resolve_group_expr(
                rewrite(self.having, state.placeholders),
                gtable,
                state.key_exprs,
                state.bindings,
            )
            mask = evaluate_predicate(having, gtable, extra)
            gtable = gtable.filter(mask)
            extra = {k: v[mask] for k, v in extra.items()}

        out = {}
        for i, item in enumerate(self.items):
            expr = _resolve_group_expr(
                rewrite(item.expr, state.placeholders),
                gtable,
                state.key_exprs,
                state.bindings,
            )
            name = item.alias or _output_name(item.expr, i)
            if isinstance(expr, ColumnRef) and expr.name in gtable:
                out[name] = gtable.column(expr.name)
            else:
                out[name] = _column_from_array(evaluate(expr, gtable, extra))
        return Table(out)


def _resolve_group_expr(expr, gtable, key_exprs, bindings) -> Expr:
    """Resolve an expression in group context.

    Aggregate calls were already replaced by ``__agg_i`` placeholder
    refs. A subtree equal to a GROUP BY expression maps to its key
    column; any other plain column reference must be a key column
    (standard SQL rule).
    """
    if expr in key_exprs:
        return ColumnRef(key_exprs[expr])
    if isinstance(expr, ColumnRef):
        if expr.name.startswith("__agg_"):
            return expr
        resolved = _try_resolve_name(expr.name, gtable, bindings)
        if resolved is None:
            raise QueryExecutionError(
                f"column {expr.name!r} must appear in GROUP BY or inside "
                "an aggregate"
            )
        return ColumnRef(resolved)
    mapping = {}
    for child_key, column in key_exprs.items():
        mapping[child_key] = ColumnRef(column)
    partially = rewrite(expr, mapping)
    # Resolve any remaining refs against the group table.
    refs = {}
    for ref in collect_column_refs(partially):
        if ref.name in gtable or ref.name.startswith("__agg_"):
            continue
        resolved = _try_resolve_name(ref.name, gtable, bindings)
        if resolved is None:
            raise QueryExecutionError(
                f"column {ref.name!r} must appear in GROUP BY or inside "
                "an aggregate"
            )
        refs[ref] = ColumnRef(resolved)
    return rewrite(partially, refs)


class CubeAggregateOp(_AggregateBase):
    """GROUP BY ... WITH CUBE: one grouping per subset, stacked.

    Key columns are stringified so that :data:`ALL_MARKER` can stand in
    for "all values" on the non-grouped attributes (Hive prints NULL).
    """

    def execute(self, catalog: dict) -> Relation:
        state = self._prepare(catalog)
        working = state.working
        pieces = []
        for subset in cube_grouping_sets(state.key_names):
            keys = self._group_keys(state, list(subset))
            extra = {}
            for i, (func, values) in enumerate(state.agg_inputs):
                extra[f"__agg_{i}"] = compute_aggregate(
                    func, values, keys.gids, keys.num_groups, state.weights
                )
            out = {}
            for i, item in enumerate(self.items):
                expr = item.expr
                if isinstance(expr, ColumnRef) and expr.name in state.alias_map:
                    expr = state.alias_map[expr.name]
                resolved = (
                    _resolve_expr(expr, working, state.bindings)
                    if not isinstance(expr, AggCall)
                    else expr
                )
                name = item.alias or _output_name(item.expr, i)
                if isinstance(resolved, AggCall) or collect_agg_calls(expr):
                    rewritten = rewrite(
                        expr if isinstance(expr, AggCall) else resolved,
                        state.placeholders,
                    )
                    out[name] = _column_from_array(
                        evaluate(
                            rewritten, _empty_context(keys.num_groups), extra
                        )
                    )
                elif (
                    isinstance(resolved, ColumnRef)
                    and resolved.name in state.key_names
                ):
                    if resolved.name in subset:
                        values = keys.key_column(
                            working, resolved.name
                        ).decode()
                        out[name] = Column.from_strings(
                            np.asarray(
                                [str(v) for v in values], dtype=object
                            )
                        )
                    else:
                        out[name] = Column.from_strings(
                            np.asarray(
                                [ALL_MARKER] * keys.num_groups, dtype=object
                            )
                        )
                else:
                    raise QueryExecutionError(
                        "WITH CUBE SELECT items must be grouped columns or "
                        f"aggregates, got {expr_to_sql(item.expr)}"
                    )
            pieces.append(Table(out))
        result = pieces[0]
        for piece in pieces[1:]:
            result = result.concat(piece)
        return Relation(result, state.bindings)


def _empty_context(n: int) -> Table:
    return Table({"__rows__": Column(DType.INT64, np.zeros(n, dtype=np.int64))})


# ----------------------------------------------------------------------
# ordering / limiting
# ----------------------------------------------------------------------
@dataclass
class OrderByOp(PhysicalOperator):
    child: PhysicalOperator
    keys: Tuple[OrderItem, ...]

    def execute(self, catalog: dict) -> Relation:
        rel = self.child.execute(catalog)
        keys = [
            (_resolve_expr(item.expr, rel.table, []), item.ascending)
            for item in self.keys
        ]
        return Relation(
            rel.table.take(sort_permutation(rel.table, keys)), rel.bindings
        )


def sort_permutation(table: Table, keys) -> np.ndarray:
    """The ``ORDER BY`` row order of ``table``.

    ``keys`` are ``(expr, ascending)`` pairs over ``table``'s columns,
    the first one primary. One stable lexsort orders every key at once,
    so ties on a descending key keep the order the later keys set.
    """
    arrays = []
    # numpy lexsort: last key is primary.
    for expr, ascending in reversed(list(keys)):
        values = evaluate(expr, table)
        if values.dtype.kind in ("O", "U", "S"):
            values = np.asarray([str(v) for v in values])
        elif values.dtype == np.bool_:
            # numpy forbids unary minus on bool; DESC needs it.
            values = values.astype(np.int8)
        if ascending:
            arrays.append(values)
        elif values.dtype.kind in ("U", "S"):
            # Invert string order via negative rank.
            _, inverse = np.unique(values, return_inverse=True)
            arrays.append(-inverse)
        else:
            arrays.append(-values)
    return np.lexsort(arrays)


@dataclass
class LimitOp(PhysicalOperator):
    child: PhysicalOperator
    count: int

    def execute(self, catalog: dict) -> Relation:
        rel = self.child.execute(catalog)
        return Relation(rel.table.head(self.count), rel.bindings)


# ----------------------------------------------------------------------
# compilation
# ----------------------------------------------------------------------
@dataclass
class PhysicalPlan:
    """A compiled operator tree, runnable against a table catalog."""

    root: PhysicalOperator
    logical: lp.LogicalPlan

    def run(self, tables: dict) -> Table:
        return self.root.execute(dict(tables)).table


def compile_plan(plan: lp.LogicalPlan) -> PhysicalPlan:
    """Compile a logical plan into a physical operator tree."""
    return PhysicalPlan(_compile(plan), plan)


def _compile(plan: lp.LogicalPlan) -> PhysicalOperator:
    if isinstance(plan, lp.Scan):
        return ScanOp(plan.table, plan.binding)
    if isinstance(plan, lp.Dual):
        return DualOp()
    if isinstance(plan, lp.SubqueryScan):
        return SubqueryOp(_compile(plan.plan), plan.binding)
    if isinstance(plan, lp.Join):
        return JoinOp(
            _compile(plan.left),
            _compile(plan.right),
            plan.condition,
            plan.weight_column,
        )
    if isinstance(plan, lp.Filter):
        return FilterOp(_compile(plan.child), plan.predicate)
    if isinstance(plan, lp.Project):
        return ProjectOp(_compile(plan.child), plan.items, plan.weight_column)
    if isinstance(plan, (lp.GroupAggregate, lp.CubeAggregate)):
        op = (
            GroupAggregateOp
            if isinstance(plan, lp.GroupAggregate)
            else CubeAggregateOp
        )
        return op(
            _compile(plan.child),
            plan.group_by,
            plan.items,
            plan.having,
            plan.weight_column,
        )
    if isinstance(plan, lp.OrderBy):
        return OrderByOp(_compile(plan.child), plan.keys)
    if isinstance(plan, lp.Limit):
        return LimitOp(_compile(plan.child), plan.count)
    if isinstance(plan, lp.WithCTE):
        return WithCTEOp(
            plan.name, _compile(plan.definition), _compile(plan.body)
        )
    raise TypeError(f"cannot compile plan node {type(plan).__name__}")
