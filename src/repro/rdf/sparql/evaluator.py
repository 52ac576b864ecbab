"""Evaluation of the SPARQL algebra over a graph.

Solutions are dictionaries mapping :class:`Variable` to RDF terms.  BGP
evaluation orders triple patterns by estimated selectivity (bound terms
first) and streams bindings through the graph's permutation indices, so
(data, evidence-type) lookups from the annotation store stay index-backed.
"""

from __future__ import annotations

import functools
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.rdf.graph import Graph
from repro.rdf.sparql import ast
from repro.rdf.sparql.functions import (
    ACCEPTS_UNBOUND,
    BUILTINS,
    SPARQLTypeError,
    effective_boolean_value,
)
from repro.rdf.sparql.parser import parse_query
from repro.rdf.term import BNode, Literal, Node, URIRef, Variable
from repro.rdf.triple import Triple

Solution = Dict[Variable, Node]


class SPARQLEvaluationError(RuntimeError):
    """Raised for errors outside FILTER semantics (e.g. bad query form)."""


# -- expression evaluation ----------------------------------------------------


def _resolve(term: ast.Term, solution: Solution) -> Optional[Node]:
    if isinstance(term, Variable):
        return solution.get(term)
    return term


def eval_expression(
    expr: ast.Expression, solution: Solution, graph: Optional[Graph] = None
) -> object:
    """Evaluate an expression; raises SPARQLTypeError on type errors.

    ``graph`` is required only for ``EXISTS`` / ``NOT EXISTS``
    expressions, which re-enter pattern evaluation.
    """
    if isinstance(expr, ast.ExistsExpr):
        if graph is None:
            raise SPARQLEvaluationError(
                "EXISTS is only valid inside FILTER evaluation"
            )
        found = next(eval_pattern(expr.pattern, graph, dict(solution)), None)
        exists = found is not None
        return (not exists) if expr.negated else exists
    if isinstance(expr, ast.TermExpr):
        if isinstance(expr.term, Variable):
            value = solution.get(expr.term)
            if value is None:
                raise SPARQLTypeError(f"unbound variable ?{expr.term}")
            return value
        return expr.term
    if isinstance(expr, ast.OrExpr):
        # SPARQL: error || true == true
        left_error: Optional[SPARQLTypeError] = None
        try:
            if effective_boolean_value(eval_expression(expr.left, solution)):
                return True
        except SPARQLTypeError as exc:
            left_error = exc
        right = effective_boolean_value(eval_expression(expr.right, solution))
        if right:
            return True
        if left_error is not None:
            raise left_error
        return False
    if isinstance(expr, ast.AndExpr):
        left_error = None
        try:
            if not effective_boolean_value(eval_expression(expr.left, solution)):
                return False
        except SPARQLTypeError as exc:
            left_error = exc
        right = effective_boolean_value(eval_expression(expr.right, solution))
        if not right:
            return False
        if left_error is not None:
            raise left_error
        return True
    if isinstance(expr, ast.NotExpr):
        return not effective_boolean_value(eval_expression(expr.operand, solution))
    if isinstance(expr, ast.Comparison):
        return _eval_comparison(expr, solution)
    if isinstance(expr, ast.Arithmetic):
        return _eval_arithmetic(expr, solution)
    if isinstance(expr, ast.Negate):
        value = eval_expression(expr.operand, solution)
        if isinstance(value, Literal) and value.is_numeric():
            return Literal(-value.value)
        raise SPARQLTypeError(f"cannot negate {value!r}")
    if isinstance(expr, ast.FunctionCall):
        return _eval_function(expr, solution)
    raise SPARQLEvaluationError(f"unknown expression node {expr!r}")


def _eval_comparison(expr: ast.Comparison, solution: Solution) -> bool:
    left = eval_expression(expr.left, solution)
    right = eval_expression(expr.right, solution)
    if isinstance(left, bool):
        left = Literal(left)
    if isinstance(right, bool):
        right = Literal(right)
    op = expr.op
    if op == "=":
        return _term_equal(left, right)
    if op == "!=":
        return not _term_equal(left, right)
    if isinstance(left, Literal) and isinstance(right, Literal):
        try:
            if op == "<":
                return left < right
            if op == ">":
                return left > right
            if op == "<=":
                return left <= right
            if op == ">=":
                return left >= right
        except TypeError as exc:
            raise SPARQLTypeError(str(exc)) from exc
    raise SPARQLTypeError(f"cannot compare {left!r} {op} {right!r}")


def _term_equal(left: object, right: object) -> bool:
    if isinstance(left, Literal) and isinstance(right, Literal):
        if left.is_numeric() and right.is_numeric():
            return left.value == right.value
        if (left.datatype is None) != (right.datatype is None) and (
            left.lexical == right.lexical
        ):
            # plain vs typed string with equal form: not equal unless both plain
            return left.datatype == right.datatype
        return left == right
    if isinstance(left, Node) and isinstance(right, Node):
        return type(left) is type(right) and str(left) == str(right)
    raise SPARQLTypeError(f"cannot test equality of {left!r} and {right!r}")


def _eval_arithmetic(expr: ast.Arithmetic, solution: Solution) -> Literal:
    left = eval_expression(expr.left, solution)
    right = eval_expression(expr.right, solution)
    if not (
        isinstance(left, Literal)
        and left.is_numeric()
        and isinstance(right, Literal)
        and right.is_numeric()
    ):
        raise SPARQLTypeError(
            f"arithmetic requires numeric literals: {left!r} {expr.op} {right!r}"
        )
    a, b = left.value, right.value
    if expr.op == "+":
        return Literal(a + b)
    if expr.op == "-":
        return Literal(a - b)
    if expr.op == "*":
        return Literal(a * b)
    if expr.op == "/":
        if b == 0:
            raise SPARQLTypeError("division by zero")
        return Literal(a / b)
    raise SPARQLEvaluationError(f"unknown arithmetic operator {expr.op!r}")


def _eval_function(expr: ast.FunctionCall, solution: Solution) -> object:
    try:
        function = BUILTINS[expr.name]
    except KeyError:
        raise SPARQLEvaluationError(f"unknown function {expr.name}") from None
    args: List[object] = []
    for arg in expr.args:
        if expr.name in ACCEPTS_UNBOUND and isinstance(arg, ast.TermExpr):
            args.append(_resolve(arg.term, solution))
        else:
            args.append(eval_expression(arg, solution))
    return function(args)


# -- pattern evaluation -------------------------------------------------------


def _pattern_selectivity(
    pattern: ast.TriplePatternNode, bound: set
) -> Tuple[int, int]:
    terms = (pattern.subject, pattern.predicate, pattern.object)
    concrete = sum(1 for t in terms if not isinstance(t, Variable))
    bound_vars = sum(1 for t in terms if isinstance(t, Variable) and t in bound)
    return (-(concrete + bound_vars), -concrete)


def _eval_bgp(
    patterns: Sequence[ast.TriplePatternNode], graph: Graph, solution: Solution
) -> Iterator[Solution]:
    if not patterns:
        yield dict(solution)
        return
    remaining = list(patterns)
    bound = {v for v in solution}
    remaining.sort(key=lambda p: _pattern_selectivity(p, bound))
    first, rest = remaining[0], remaining[1:]

    def concrete(term: ast.Term) -> Optional[Node]:
        if isinstance(term, Variable):
            return solution.get(term)
        return term

    s, p, o = (
        concrete(first.subject),
        concrete(first.predicate),
        concrete(first.object),
    )
    for triple in graph.triples((s, p, o)):
        extended = dict(solution)
        consistent = True
        for term, value in zip(
            (first.subject, first.predicate, first.object), triple
        ):
            if isinstance(term, Variable):
                existing = extended.get(term)
                if existing is None:
                    extended[term] = value
                elif existing != value:
                    consistent = False
                    break
        if consistent:
            yield from _eval_bgp(rest, graph, extended)


def eval_pattern(
    pattern: ast.Pattern, graph: Graph, solution: Optional[Solution] = None
) -> Iterator[Solution]:
    """Yield solution mappings for a pattern under a binding."""

    if solution is None:
        solution = {}
    if isinstance(pattern, ast.BGP):
        yield from _eval_bgp(pattern.patterns, graph, solution)
    elif isinstance(pattern, ast.Join):
        for left in eval_pattern(pattern.left, graph, solution):
            yield from eval_pattern(pattern.right, graph, left)
    elif isinstance(pattern, ast.LeftJoin):
        for left in eval_pattern(pattern.left, graph, solution):
            extended_any = False
            for joined in eval_pattern(pattern.right, graph, left):
                if pattern.expr is not None:
                    try:
                        keep = effective_boolean_value(
                            eval_expression(pattern.expr, joined, graph)
                        )
                    except SPARQLTypeError:
                        keep = False
                    if not keep:
                        continue
                extended_any = True
                yield joined
            if not extended_any:
                yield left
    elif isinstance(pattern, ast.UnionPattern):
        yield from eval_pattern(pattern.left, graph, solution)
        yield from eval_pattern(pattern.right, graph, solution)
    elif isinstance(pattern, ast.FilterPattern):
        for candidate in eval_pattern(pattern.pattern, graph, solution):
            try:
                keep = effective_boolean_value(
                    eval_expression(pattern.expr, candidate, graph)
                )
            except SPARQLTypeError:
                keep = False
            if keep:
                yield candidate
    else:
        raise SPARQLEvaluationError(f"unknown pattern node {pattern!r}")


# -- results -------------------------------------------------------------------


class SPARQLResult:
    """The outcome of a query: bindings, a boolean, or a constructed graph."""

    def __init__(
        self,
        query_type: str,
        variables: Tuple[Variable, ...] = (),
        rows: Optional[List[Solution]] = None,
        boolean: Optional[bool] = None,
        graph: Optional[Graph] = None,
    ) -> None:
        self.query_type = query_type
        self.variables = variables
        self.rows = rows if rows is not None else []
        self.boolean = boolean
        self.graph = graph

    def __iter__(self) -> Iterator[Tuple[Optional[Node], ...]]:
        for row in self.rows:
            yield tuple(row.get(var) for var in self.variables)

    def __len__(self) -> int:
        return len(self.rows)

    def __bool__(self) -> bool:
        if self.query_type == "ASK":
            return bool(self.boolean)
        if self.query_type == "CONSTRUCT":
            return bool(self.graph)
        return bool(self.rows)

    def bindings(self) -> List[Dict[str, Node]]:
        """Rows as plain dictionaries keyed by variable name."""
        return [{str(var): value for var, value in row.items()} for row in self.rows]

    def __repr__(self) -> str:
        if self.query_type == "ASK":
            return f"<SPARQLResult ASK {self.boolean}>"
        if self.query_type == "CONSTRUCT":
            size = len(self.graph) if self.graph is not None else 0
            return f"<SPARQLResult CONSTRUCT ({size} triples)>"
        return f"<SPARQLResult SELECT ({len(self.rows)} rows)>"


def _collect_variables(pattern: ast.Pattern) -> List[Variable]:
    seen: List[Variable] = []

    def visit(node: ast.Pattern) -> None:
        if isinstance(node, ast.BGP):
            for tp in node.patterns:
                for var in tp.variables():
                    if var not in seen:
                        seen.append(var)
        elif isinstance(node, (ast.Join, ast.LeftJoin, ast.UnionPattern)):
            visit(node.left)
            visit(node.right)
        elif isinstance(node, ast.FilterPattern):
            visit(node.pattern)

    visit(pattern)
    return seen


def _apply_modifiers(
    rows: List[Solution],
    order_by: Tuple[ast.OrderCondition, ...],
    limit: Optional[int],
    offset: int,
    distinct: bool,
    variables: Tuple[Variable, ...],
) -> List[Solution]:
    if distinct:
        unique: List[Solution] = []
        seen = set()
        for row in rows:
            key = tuple(row.get(var) for var in variables)
            if key not in seen:
                seen.add(key)
                unique.append(row)
        rows = unique
    if order_by:

        def sort_key(row: Solution):
            keys = []
            for condition in order_by:
                try:
                    value = eval_expression(condition.expr, row)
                except SPARQLTypeError:
                    value = None
                keys.append(_Orderable(value, condition.descending))
            return tuple(keys)

        rows = sorted(rows, key=sort_key)
    if offset:
        rows = rows[offset:]
    if limit is not None:
        rows = rows[:limit]
    return rows


@functools.total_ordering
class _Orderable:
    """Total order over heterogeneous SPARQL values for ORDER BY."""

    __slots__ = ("value", "descending")

    def __init__(self, value: object, descending: bool) -> None:
        self.value = value
        self.descending = descending

    def _rank(self) -> Tuple[int, object]:
        value = self.value
        if value is None:
            return (0, "")
        if isinstance(value, BNode):
            return (1, str(value))
        if isinstance(value, URIRef):
            return (2, str(value))
        if isinstance(value, bool):
            return (3, (0, float(value)))
        if isinstance(value, Literal):
            if value.is_numeric():
                return (3, (0, float(value.value)))
            return (3, (1, value.lexical))
        return (4, str(value))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _Orderable):
            return NotImplemented
        return self._rank() == other._rank()

    def __lt__(self, other: "_Orderable") -> bool:
        a, b = self._rank(), other._rank()
        if self.descending:
            a, b = b, a
        if a[0] != b[0]:
            return a[0] < b[0]
        try:
            return a[1] < b[1]
        except TypeError:
            return str(a[1]) < str(b[1])

    def __hash__(self) -> int:
        return hash(self._rank())


def _describe_into(graph: Graph, resource: Node, out: Graph) -> None:
    """Concise bounded description: the resource's statements, expanding
    blank-node objects transitively."""
    frontier = [resource]
    seen = set()
    while frontier:
        current = frontier.pop()
        if current in seen:
            continue
        seen.add(current)
        for triple in graph.triples((current, None, None)):
            out.add(triple)
            if isinstance(triple.object, BNode):
                frontier.append(triple.object)


def _aggregate_rows(
    rows: List[Solution], parsed: ast.SelectQuery
) -> List[Solution]:
    """Group solutions and compute aggregate projections."""
    groups: Dict[Tuple, List[Solution]] = {}
    order: List[Tuple] = []
    for row in rows:
        key = tuple(row.get(var) for var in parsed.group_by)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(row)
    if not rows and not parsed.group_by:
        # Aggregates over an empty, ungrouped solution set still
        # produce one row (COUNT = 0).
        groups[()] = []
        order.append(())
    out: List[Solution] = []
    for key in order:
        members = groups[key]
        result: Solution = {
            var: value
            for var, value in zip(parsed.group_by, key)
            if value is not None
        }
        for aggregate in parsed.aggregates:
            result[aggregate.alias] = _compute_aggregate(aggregate, members)
        out.append(result)
    return out


def _compute_aggregate(
    aggregate: ast.Aggregate, members: List[Solution]
) -> Optional[Node]:
    values: List[object] = []
    if aggregate.expr is None:  # COUNT(*)
        values = list(members)
    else:
        for row in members:
            try:
                values.append(eval_expression(aggregate.expr, row))
            except SPARQLTypeError:
                continue
    if aggregate.distinct and aggregate.expr is not None:
        seen = []
        for value in values:
            if value not in seen:
                seen.append(value)
        values = seen
    if aggregate.function == "COUNT":
        return Literal(len(values))
    numeric = [
        v.value
        for v in values
        if isinstance(v, Literal) and v.is_numeric()
    ]
    if aggregate.function == "SUM":
        return Literal(sum(numeric)) if numeric else Literal(0)
    if aggregate.function == "AVG":
        return Literal(sum(numeric) / len(numeric)) if numeric else None
    if aggregate.function in ("MIN", "MAX"):
        literals = [v for v in values if isinstance(v, Literal)]
        if not literals:
            return None
        try:
            chooser = min if aggregate.function == "MIN" else max
            return chooser(literals)
        except TypeError:
            keyed = sorted(literals, key=lambda l: str(l))
            return keyed[0] if aggregate.function == "MIN" else keyed[-1]
    if aggregate.function == "SAMPLE":
        for value in values:
            if isinstance(value, Node):
                return value
        return None
    raise SPARQLEvaluationError(
        f"unknown aggregate function {aggregate.function}"
    )


def evaluate(
    graph: Graph,
    query: Union[str, ast.Query],
    *,
    initial: Optional[Solution] = None,
    seeds: Optional[Sequence[Solution]] = None,
    pattern_rows=None,
) -> SPARQLResult:
    """Parse (if needed) and evaluate a query over ``graph``.

    ``initial`` pre-binds variables before pattern evaluation — the
    substitution mechanism behind prepared ``$param`` queries.
    ``seeds`` joins the pattern with a seed relation (a ``VALUES``
    block): the pattern is evaluated once per seed row, on top of
    ``initial``, and the solution modifiers apply to the union of the
    rows; an empty relation has no solutions.
    ``pattern_rows`` (internal) overrides how the query's graph
    pattern is enumerated: a callable ``(pattern, first_only=False) ->
    List[Solution]``.  The planner in :mod:`repro.rdf.sparql.plan`
    injects its compiled executor here so both engines share one
    implementation of projection, aggregation, solution modifiers and
    the CONSTRUCT/DESCRIBE forms; the default is the naive reference
    evaluation via :func:`eval_pattern`.
    """
    parsed = parse_query(query) if isinstance(query, str) else query
    if pattern_rows is None:
        if seeds is None:
            starts = [dict(initial) if initial else None]
        else:
            starts = [{**(initial or {}), **seed} for seed in seeds]

        def pattern_rows(pattern: ast.Pattern, first_only: bool = False):
            out: List[Solution] = []
            for start in starts:
                for solution in eval_pattern(pattern, graph, start):
                    out.append(solution)
                    if first_only:
                        return out
            return out

    if isinstance(parsed, ast.SelectQuery):
        rows = pattern_rows(parsed.pattern)
        if parsed.aggregates or parsed.group_by:
            rows = _aggregate_rows(rows, parsed)
            variables = tuple(parsed.group_by) + tuple(
                aggregate.alias for aggregate in parsed.aggregates
            )
        else:
            variables = parsed.variables or tuple(
                _collect_variables(parsed.pattern)
            )
        rows = _apply_modifiers(
            rows, parsed.order_by, parsed.limit, parsed.offset,
            parsed.distinct, variables,
        )
        projected = [
            {var: row[var] for var in variables if var in row} for row in rows
        ]
        return SPARQLResult("SELECT", variables=variables, rows=projected)
    if isinstance(parsed, ast.AskQuery):
        found = pattern_rows(parsed.pattern, first_only=True)
        return SPARQLResult("ASK", boolean=bool(found))
    if isinstance(parsed, ast.DescribeQuery):
        resources: List[Node] = []
        constants = [t for t in parsed.terms if not isinstance(t, Variable)]
        resources.extend(constants)
        described_vars = [t for t in parsed.terms if isinstance(t, Variable)]
        if parsed.pattern is not None and described_vars:
            for row in pattern_rows(parsed.pattern):
                for var in described_vars:
                    value = row.get(var)
                    if value is not None and value not in resources:
                        resources.append(value)
        out = Graph()
        for resource in resources:
            _describe_into(graph, resource, out)
        return SPARQLResult("CONSTRUCT", graph=out)
    if isinstance(parsed, ast.ConstructQuery):
        rows = pattern_rows(parsed.pattern)
        if parsed.offset:
            rows = rows[parsed.offset:]
        if parsed.limit is not None:
            rows = rows[: parsed.limit]
        out = Graph()
        for row in rows:
            bnode_map: Dict[BNode, BNode] = {}
            for tp in parsed.template:
                terms = []
                ok = True
                for term in (tp.subject, tp.predicate, tp.object):
                    if isinstance(term, Variable):
                        value = row.get(term)
                        if value is None:
                            ok = False
                            break
                        terms.append(value)
                    elif isinstance(term, BNode):
                        terms.append(bnode_map.setdefault(term, BNode()))
                    else:
                        terms.append(term)
                if not ok:
                    continue
                try:
                    out.add(terms[0], terms[1], terms[2])
                except TypeError:
                    continue
        return SPARQLResult("CONSTRUCT", graph=out)
    raise SPARQLEvaluationError(f"unsupported query object {parsed!r}")
