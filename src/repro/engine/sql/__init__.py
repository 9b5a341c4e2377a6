"""SQL subset: lexer, parser, logical planner, physical operators.

The dialect covers everything the paper's twelve evaluation queries use:
``WITH`` common table expressions, ``SELECT`` expression lists with
aliases, ``FROM`` over tables / subqueries / inner ``JOIN ... ON``,
``WHERE`` predicates, ``GROUP BY ... [WITH CUBE]``, ``HAVING``,
``ORDER BY`` and ``LIMIT``, plus the scalar and aggregate functions of
:mod:`repro.engine.functions` and :mod:`repro.engine.aggregates`.

Execution is a three-layer pipeline: :func:`parse_query` produces the
AST, :mod:`~repro.engine.sql.planner` lowers it into a logical plan
(with rewrite passes for weighted/approximate execution), and
:mod:`~repro.engine.sql.operators` compiles the plan into vectorized
physical operators. :func:`execute_sql` wraps all three.
"""

from .parser import parse_query
from .ast import (
    JoinClause,
    NamedTable,
    SelectItem,
    SelectQuery,
    SubqueryTable,
)
from .errors import QueryExecutionError
from .executor import execute_query, execute_sql, plan_query
from .planner import (
    apply_weighting,
    bind_plan,
    format_plan,
    lower_query,
    parameterize_query,
    rename_tables,
)
from .operators import PhysicalPlan, compile_plan

__all__ = [
    "parse_query",
    "execute_query",
    "execute_sql",
    "plan_query",
    "QueryExecutionError",
    "SelectQuery",
    "SelectItem",
    "NamedTable",
    "SubqueryTable",
    "JoinClause",
    "lower_query",
    "apply_weighting",
    "rename_tables",
    "parameterize_query",
    "bind_plan",
    "format_plan",
    "compile_plan",
    "PhysicalPlan",
]
