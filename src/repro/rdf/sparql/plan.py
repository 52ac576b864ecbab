"""One-shot query planning, compiled execution, and the prepared-query cache.

The naive evaluator (:mod:`repro.rdf.sparql.evaluator`) re-sorts the
remaining triple patterns and copies the whole solution dictionary for
every candidate row — fine for unit tests, quadratic waste on the
annotation-lookup hot path.  This module compiles a parsed query once
into an executable plan and then runs it with none of that per-row
work:

* **join ordering** — each basic graph pattern's triple patterns are
  ordered *once per execution* by a greedy lowest-estimated-cardinality
  heuristic fed by the graph's incremental per-predicate statistics
  (:meth:`repro.rdf.graph.Graph.predicate_stats`) and direct index
  probes for constant terms;
* **filter pushdown** — FILTER conjuncts are split on ``&&`` and
  evaluated at the earliest point of the join order at which all their
  variables are bound, inside the index-nested-loop join, so failing
  rows are cut before later patterns multiply them;
* **array bindings** — variables are numbered into slots at compile
  time and execution binds into one reused array (backtracking unbinds
  in place) instead of allocating a dict per candidate row;
* **prepared queries** — :func:`prepare` parses a query containing
  ``$param`` variables once and substitutes concrete terms per
  execution, and :func:`compile_query` fronts a process-wide LRU cache
  keyed on query text, so repeat ``graph.query()`` calls skip the
  lexer/parser entirely;
* **seed relations** — a ``$param`` bound to a list of terms is a
  one-column ``VALUES`` block: one execution answers for every term
  (a bind join), costing index probes per seed rather than a scan of
  the store.

Planned execution is differentially tested against the naive evaluator
(same multiset of solutions) in ``tests/test_sparql_differential.py``.

Cache hit/miss/eviction counts are published as the
``repro_rdf_plan_*`` metric families; ``python -m repro query
--explain`` prints the chosen join order and per-pattern cardinality
estimates for a query over a concrete graph.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.rdf.graph import Graph
from repro.rdf.sparql import ast
from repro.rdf.sparql.evaluator import (
    SPARQLEvaluationError,
    SPARQLResult,
    Solution,
    eval_expression,
    evaluate,
)
from repro.rdf.sparql.functions import SPARQLTypeError, effective_boolean_value
from repro.rdf.sparql.parser import parse_query_params
from repro.rdf.term import Literal, Node, Variable

__all__ = [
    "CompiledQuery",
    "PlanCache",
    "PlanCacheStats",
    "PreparedQuery",
    "compile_query",
    "explain",
    "get_plan_cache",
    "prepare",
    "reset_plan_cache",
]


def _registry():
    from repro.observability import get_registry

    return get_registry()


# -- variable slots and expression analysis -----------------------------------


class _SlotTable:
    """Compile-time numbering of every variable in a query."""

    def __init__(self) -> None:
        self.slots: Dict[Variable, int] = {}
        self.variables: List[Variable] = []

    def slot(self, var: Variable) -> int:
        index = self.slots.get(var)
        if index is None:
            index = len(self.variables)
            self.slots[var] = index
            self.variables.append(var)
        return index


def _expression_variables(expr: ast.Expression) -> Set[Variable]:
    """Free variables of an expression (EXISTS sub-patterns excluded)."""
    found: Set[Variable] = set()

    def walk(node: ast.Expression) -> None:
        if isinstance(node, ast.TermExpr):
            if isinstance(node.term, Variable):
                found.add(node.term)
        elif isinstance(node, (ast.OrExpr, ast.AndExpr, ast.Comparison,
                               ast.Arithmetic)):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, (ast.NotExpr, ast.Negate)):
            walk(node.operand)
        elif isinstance(node, ast.FunctionCall):
            for arg in node.args:
                walk(arg)
        # ExistsExpr: re-enters full pattern evaluation with the current
        # solution; treated as opaque (never pushed down).

    walk(expr)
    return found


def _contains_exists(expr: ast.Expression) -> bool:
    if isinstance(expr, ast.ExistsExpr):
        return True
    if isinstance(expr, (ast.OrExpr, ast.AndExpr, ast.Comparison,
                         ast.Arithmetic)):
        return _contains_exists(expr.left) or _contains_exists(expr.right)
    if isinstance(expr, (ast.NotExpr, ast.Negate)):
        return _contains_exists(expr.operand)
    if isinstance(expr, ast.FunctionCall):
        return any(_contains_exists(arg) for arg in expr.args)
    return False


def _split_conjuncts(expr: ast.Expression) -> List[ast.Expression]:
    """Flatten ``a && b && c`` into its conjuncts.

    Splitting preserves FILTER semantics: a row survives the original
    conjunction iff every conjunct independently evaluates to true
    (errors and ``false`` both drop the row).
    """
    if isinstance(expr, ast.AndExpr):
        return _split_conjuncts(expr.left) + _split_conjuncts(expr.right)
    return [expr]


class _BindingsView:
    """A read-only :class:`Solution` view over the slot-binding array.

    Passed to :func:`eval_expression` (and from there into EXISTS
    re-evaluation, which calls ``dict(view)``), so filter evaluation
    never forces a dictionary copy on the fast path.
    """

    __slots__ = ("_variables", "_slots", "_bindings", "_extra")

    def __init__(
        self,
        variables: Sequence[Variable],
        slots: Dict[Variable, int],
        bindings: List[Optional[Node]],
        extra: Dict[Variable, Node],
    ) -> None:
        self._variables = variables
        self._slots = slots
        self._bindings = bindings
        self._extra = extra

    def get(self, key: Variable, default: Optional[Node] = None):
        slot = self._slots.get(key)
        if slot is not None:
            value = self._bindings[slot]
            if value is not None:
                return value
        return self._extra.get(key, default)

    def __getitem__(self, key: Variable) -> Node:
        value = self.get(key)
        if value is None:
            raise KeyError(key)
        return value

    def keys(self) -> Iterator[Variable]:
        return iter(list(self))

    def items(self):
        return [(var, self[var]) for var in self]

    def __iter__(self) -> Iterator[Variable]:
        for i, var in enumerate(self._variables):
            if self._bindings[i] is not None:
                yield var
        for var in self._extra:
            yield var

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def __contains__(self, key: object) -> bool:
        return self.get(key) is not None


# -- compiled plan nodes ------------------------------------------------------


_CONST = 0
_VAR = 1


class _CompiledPattern:
    """One triple pattern with positions resolved to consts or slots."""

    __slots__ = ("node", "kinds", "values", "var_slots")

    def __init__(self, node: ast.TriplePatternNode, slots: _SlotTable) -> None:
        self.node = node
        kinds: List[int] = []
        values: List[object] = []
        var_slots: Set[int] = set()
        for term in (node.subject, node.predicate, node.object):
            if isinstance(term, Variable):
                kinds.append(_VAR)
                slot = slots.slot(term)
                values.append(slot)
                var_slots.add(slot)
            else:
                kinds.append(_CONST)
                values.append(term)
        self.kinds = tuple(kinds)
        self.values = tuple(values)
        self.var_slots = frozenset(var_slots)

    def n3(self) -> str:
        return " ".join(
            term.n3()
            for term in (self.node.subject, self.node.predicate,
                         self.node.object)
        )


class _CompiledFilter:
    """One FILTER conjunct with its variable footprint."""

    __slots__ = ("expr", "slots", "pushable")

    def __init__(self, expr: ast.Expression, slots: _SlotTable) -> None:
        self.expr = expr
        self.slots = frozenset(
            slots.slot(var) for var in _expression_variables(expr)
        )
        self.pushable = not _contains_exists(expr)

    def passes(self, state: "_ExecState") -> bool:
        try:
            return effective_boolean_value(
                eval_expression(self.expr, state.view, state.graph)
            )
        except SPARQLTypeError:
            return False


class _BGPPlan:
    """A basic graph pattern with pushed-down filters.

    The join order is chosen once per execution (not per solution) by
    :meth:`order_for`; pattern matching itself handles dynamic
    boundness, so the order only affects speed, never results.
    """

    __slots__ = ("patterns", "filters", "inherited")

    def __init__(
        self,
        patterns: Tuple[_CompiledPattern, ...],
        filters: Tuple[_CompiledFilter, ...],
        inherited: FrozenSet[int],
    ) -> None:
        self.patterns = patterns
        self.filters = filters
        self.inherited = inherited

    def order_for(
        self, state: "_ExecState"
    ) -> Tuple[List[_CompiledPattern], List[List[_CompiledFilter]], List[float]]:
        """Greedy lowest-cardinality join order plus filter placement.

        Returns ``(ordered patterns, filters to run after pattern i,
        estimate at selection time)``.  Filters whose variables are
        never all bound inside this BGP run after the last pattern
        (same point the naive evaluator applies them).
        """
        bound = set(self.inherited) | state.initial_slots
        remaining = list(self.patterns)
        order: List[_CompiledPattern] = []
        estimates: List[float] = []
        while remaining:
            best_index = 0
            best_cost = None
            for index, pattern in enumerate(remaining):
                cost = _estimate(state, pattern, bound)
                if best_cost is None or cost < best_cost:
                    best_cost = cost
                    best_index = index
            chosen = remaining.pop(best_index)
            order.append(chosen)
            estimates.append(best_cost if best_cost is not None else 0.0)
            bound |= chosen.var_slots
        filters_at: List[List[_CompiledFilter]] = [[] for _ in order]
        if order:
            placed: Set[int] = set()
            seen = set(self.inherited) | state.initial_slots
            for index, pattern in enumerate(order):
                seen |= pattern.var_slots
                for f in self.filters:
                    if id(f) not in placed and f.slots <= seen:
                        filters_at[index].append(f)
                        placed.add(id(f))
            for f in self.filters:
                if id(f) not in placed:
                    filters_at[-1].append(f)
        return order, filters_at, estimates

    def run(self, state: "_ExecState") -> Iterator[None]:
        order, filters_at = state.orders[id(self)]
        if not order:
            # the empty BGP matches once with no new bindings, but any
            # attached filters still apply
            for f in self.filters:
                if not f.passes(state):
                    return
            yield None
            return
        yield from self._step(state, order, filters_at, 0)

    def _step(
        self,
        state: "_ExecState",
        order: List[_CompiledPattern],
        filters_at: List[List[_CompiledFilter]],
        index: int,
    ) -> Iterator[None]:
        pattern = order[index]
        filters = filters_at[index]
        last = index == len(order) - 1
        for _ in _match(state, pattern):
            passed = True
            for f in filters:
                if not f.passes(state):
                    passed = False
                    break
            if not passed:
                continue
            if last:
                yield None
            else:
                yield from self._step(state, order, filters_at, index + 1)


class _JoinPlan:
    __slots__ = ("left", "right")

    def __init__(self, left, right) -> None:
        self.left = left
        self.right = right

    def run(self, state: "_ExecState") -> Iterator[None]:
        for _ in self.left.run(state):
            yield from self.right.run(state)


class _LeftJoinPlan:
    """OPTIONAL: keep left solutions, extend with right where possible."""

    __slots__ = ("left", "right", "filter")

    def __init__(self, left, right, condition: Optional[_CompiledFilter]):
        self.left = left
        self.right = right
        self.filter = condition

    def run(self, state: "_ExecState") -> Iterator[None]:
        for _ in self.left.run(state):
            extended_any = False
            for _ in self.right.run(state):
                if self.filter is not None and not self.filter.passes(state):
                    continue
                extended_any = True
                yield None
            if not extended_any:
                yield None


class _UnionPlan:
    __slots__ = ("left", "right")

    def __init__(self, left, right) -> None:
        self.left = left
        self.right = right

    def run(self, state: "_ExecState") -> Iterator[None]:
        yield from self.left.run(state)
        yield from self.right.run(state)


class _FilterPlan:
    """Residual filters that could not be pushed into a BGP."""

    __slots__ = ("filters", "child")

    def __init__(self, filters: Tuple[_CompiledFilter, ...], child) -> None:
        self.filters = filters
        self.child = child

    def run(self, state: "_ExecState") -> Iterator[None]:
        for _ in self.child.run(state):
            if all(f.passes(state) for f in self.filters):
                yield None


_PlanNode = Union[_BGPPlan, _JoinPlan, _LeftJoinPlan, _UnionPlan, _FilterPlan]


# -- execution state and the index-nested-loop matcher ------------------------


class _ExecState:
    """Everything one plan execution mutates: the reused binding array."""

    __slots__ = (
        "graph",
        "term_ids",
        "terms",
        "probe",
        "bindings",
        "extra",
        "view",
        "initial_slots",
        "orders",
    )

    def __init__(
        self,
        graph: Graph,
        variables: Sequence[Variable],
        slots: Dict[Variable, int],
    ) -> None:
        self.graph = graph
        self.term_ids = graph._term_ids
        self.terms = graph._term_list
        self.probe = graph._probe
        self.bindings: List[Optional[Node]] = [None] * len(variables)
        self.extra: Dict[Variable, Node] = {}
        self.view = _BindingsView(
            variables, slots, self.bindings, self.extra
        )
        self.initial_slots: Set[int] = set()
        self.orders: Dict[int, Tuple[list, list]] = {}


def _match(state: _ExecState, pattern: _CompiledPattern) -> Iterator[None]:
    """Index-nested-loop step: bind the pattern's free slots in place.

    Yields once per matching triple with the bindings applied, and
    restores the array before producing the next candidate (and on
    exhaustion), so callers backtrack for free.
    """
    bindings = state.bindings
    term_ids = state.term_ids
    ids: List[Optional[int]] = [None, None, None]
    free: List[Tuple[int, int]] = []  # (position, slot)
    for position in range(3):
        if pattern.kinds[position] == _CONST:
            tid = term_ids.get(pattern.values[position])
            if tid is None:
                return
            ids[position] = tid
        else:
            slot = pattern.values[position]
            value = bindings[slot]
            if value is not None:
                tid = term_ids.get(value)
                if tid is None:
                    return
                ids[position] = tid
            else:
                free.append((position, slot))
    sid, pid, oid = ids
    if not free:
        if state.probe.contains(sid, pid, oid):
            yield None
        return
    terms = state.terms
    for candidate in state.probe.scan(sid, pid, oid):
        newly: List[int] = []
        ok = True
        for position, slot in free:
            tid = candidate[position]
            current = bindings[slot]
            if current is None:
                bindings[slot] = terms[tid]
                newly.append(slot)
            elif term_ids.get(current) != tid:
                # repeated variable inside one pattern
                ok = False
                break
        if ok:
            yield None
        for slot in newly:
            bindings[slot] = None


def _estimate(
    state: _ExecState, pattern: _CompiledPattern, bound: Set[int]
) -> float:
    """Estimated matches of one pattern given the bound slots.

    Constant terms probe the backend (``IndexProbe.count``) directly;
    variables already bound by earlier join steps (value unknown at
    planning time) divide by the predicate's distinct-subject/object
    counts from the incremental statistics.
    """
    probe = state.probe
    term_ids = state.term_ids
    resolved: List[Tuple[str, Optional[int]]] = []
    for position in range(3):
        if pattern.kinds[position] == _CONST:
            tid = term_ids.get(pattern.values[position])
            if tid is None:
                return 0.0
            resolved.append(("const", tid))
        elif pattern.values[position] in bound:
            resolved.append(("bound", None))
        else:
            resolved.append(("free", None))
    (s_kind, sid), (p_kind, pid), (o_kind, oid) = resolved
    if p_kind == "const":
        stats = probe.predicate_stats(pid)
        if stats is None:
            return 0.0
        estimate = float(stats.triples)
        if s_kind == "const":
            estimate = probe.count(sid, pid, None)
        elif s_kind == "bound":
            estimate /= max(1, stats.subjects)
        if o_kind == "const":
            direct = probe.count(None, pid, oid)
            estimate = min(estimate, direct) if s_kind != "free" else direct
        elif o_kind == "bound":
            estimate /= max(1, stats.objects)
        return estimate
    size = float(len(state.graph))
    if s_kind == "const":
        estimate = probe.count(sid, None, None)
    elif o_kind == "const":
        estimate = probe.count(None, None, oid)
    else:
        estimate = size
    n_subjects, n_predicates, n_objects = probe.index_sizes()
    if p_kind == "bound":
        estimate /= max(1, n_predicates)
    if s_kind == "bound":
        estimate /= max(1, n_subjects)
    if o_kind == "bound":
        estimate /= max(1, n_objects)
    return estimate


# -- compilation --------------------------------------------------------------


def _normalize(pattern: ast.Pattern) -> ast.Pattern:
    """Coalesce ``Join(BGP, BGP)`` into one BGP.

    The parser emits a fresh BGP per triple-block, joined pairwise.  A
    join of two BGPs has exactly the solutions of their concatenation,
    so merging them lets the planner order *all* the patterns of a
    group and push filters across the former join boundary.
    """
    if isinstance(pattern, ast.Join):
        left = _normalize(pattern.left)
        right = _normalize(pattern.right)
        if isinstance(left, ast.BGP) and isinstance(right, ast.BGP):
            return ast.BGP(left.patterns + right.patterns)
        return ast.Join(left, right)
    if isinstance(pattern, ast.LeftJoin):
        return ast.LeftJoin(
            _normalize(pattern.left), _normalize(pattern.right), pattern.expr
        )
    if isinstance(pattern, ast.UnionPattern):
        return ast.UnionPattern(
            _normalize(pattern.left), _normalize(pattern.right)
        )
    if isinstance(pattern, ast.FilterPattern):
        return ast.FilterPattern(pattern.expr, _normalize(pattern.pattern))
    return pattern


def _compile_pattern(
    pattern: ast.Pattern, slots: _SlotTable, bound: FrozenSet[int]
) -> Tuple[_PlanNode, FrozenSet[int]]:
    """Compile an algebra pattern; returns (plan, certainly-bound-after)."""
    if isinstance(pattern, ast.BGP):
        compiled = tuple(_CompiledPattern(tp, slots) for tp in pattern.patterns)
        after = bound.union(*(cp.var_slots for cp in compiled)) if compiled \
            else bound
        return _BGPPlan(compiled, (), bound), after
    if isinstance(pattern, ast.Join):
        left, after_left = _compile_pattern(pattern.left, slots, bound)
        right, after_right = _compile_pattern(pattern.right, slots, after_left)
        return _JoinPlan(left, right), after_right
    if isinstance(pattern, ast.LeftJoin):
        left, after_left = _compile_pattern(pattern.left, slots, bound)
        right, _ = _compile_pattern(pattern.right, slots, after_left)
        condition = (
            _CompiledFilter(pattern.expr, slots)
            if pattern.expr is not None
            else None
        )
        return _LeftJoinPlan(left, right, condition), after_left
    if isinstance(pattern, ast.UnionPattern):
        left, after_left = _compile_pattern(pattern.left, slots, bound)
        right, after_right = _compile_pattern(pattern.right, slots, bound)
        return _UnionPlan(left, right), after_left & after_right
    if isinstance(pattern, ast.FilterPattern):
        child, after = _compile_pattern(pattern.pattern, slots, bound)
        conjuncts = [
            _CompiledFilter(expr, slots)
            for expr in _split_conjuncts(pattern.expr)
        ]
        if isinstance(child, _BGPPlan):
            bgp_slots = frozenset().union(
                *(cp.var_slots for cp in child.patterns)
            ) if child.patterns else frozenset()
            pushed = tuple(
                f
                for f in conjuncts
                if f.pushable and f.slots <= (bgp_slots | child.inherited)
            )
            residual = tuple(f for f in conjuncts if f not in pushed)
            if pushed:
                child = _BGPPlan(
                    child.patterns, child.filters + pushed, child.inherited
                )
            if not residual:
                return child, after
            return _FilterPlan(residual, child), after
        return _FilterPlan(tuple(conjuncts), child), after
    raise SPARQLEvaluationError(f"unknown pattern node {pattern!r}")


def _walk_bgps(node: _PlanNode) -> Iterator[_BGPPlan]:
    if isinstance(node, _BGPPlan):
        yield node
    elif isinstance(node, (_JoinPlan, _LeftJoinPlan, _UnionPlan)):
        yield from _walk_bgps(node.left)
        yield from _walk_bgps(node.right)
    elif isinstance(node, _FilterPlan):
        yield from _walk_bgps(node.child)


class CompiledQuery:
    """A parsed query compiled for planned execution over any graph.

    Immutable once built (per-execution mutable state lives in
    :class:`_ExecState`), so one cached instance may execute
    concurrently from many threads.
    """

    def __init__(
        self,
        parsed: ast.Query,
        text: Optional[str] = None,
        params: FrozenSet[str] = frozenset(),
    ) -> None:
        self.query = parsed
        self.text = text
        self.params = params
        slots = _SlotTable()
        pattern = getattr(parsed, "pattern", None)
        if pattern is not None:
            self.root, _ = _compile_pattern(
                _normalize(pattern), slots, frozenset()
            )
        else:
            self.root = None
        # Register every remaining variable the query can reference
        # (ORDER BY, aggregates, DESCRIBE terms) so initial bindings
        # for them land in slots rather than the extra map.
        for var in _query_expression_variables(parsed):
            slots.slot(var)
        self.variables: Tuple[Variable, ...] = tuple(slots.variables)
        self.var_slots: Dict[Variable, int] = dict(slots.slots)

    # -- execution ---------------------------------------------------------

    def _state(
        self,
        graph: Graph,
        initial: Optional[Solution],
        seeded: Sequence[Variable] = (),
    ) -> _ExecState:
        """Fresh execution state; ``seeded`` variables plan as bound."""
        state = _ExecState(graph, self.variables, self.var_slots)
        if initial:
            for var, value in initial.items():
                slot = self.var_slots.get(var)
                if slot is None:
                    state.extra[var] = value
                else:
                    state.bindings[slot] = value
                    state.initial_slots.add(slot)
        for var in seeded:
            slot = self.var_slots.get(var)
            if slot is not None:
                state.initial_slots.add(slot)
        if self.root is not None:
            for bgp in _walk_bgps(self.root):
                order, filters_at, _ = bgp.order_for(state)
                state.orders[id(bgp)] = (order, filters_at)
        return state

    def _pattern_rows(
        self,
        graph: Graph,
        initial: Optional[Solution],
        first_only: bool = False,
        seeds: Optional[Sequence[Solution]] = None,
    ) -> List[Solution]:
        """All solutions of the compiled pattern, materialised.

        Runs entirely under the graph's lock so the result is one
        consistent snapshot, exactly like ``Graph.triples`` promises.
        ``seeds`` is a seed relation (a one-column ``VALUES`` block per
        seeded variable): the pattern runs once per seed row, joined
        with it, over one execution state and one join order.  Every
        row must bind the same variables — each row's bindings
        overwrite the previous row's, and the order chosen for the
        first fits them all.  An empty seed relation has no solutions.
        """
        if seeds is not None and not seeds:
            return []
        rows: Sequence[Optional[Solution]] = seeds if seeds is not None \
            else (None,)
        with graph._write_lock:
            state = self._state(graph, initial, tuple(rows[0] or ()))
            out: List[Solution] = []
            bindings = state.bindings
            extra = state.extra
            variables = self.variables
            var_slots = self.var_slots
            for seed in rows:
                if seed:
                    for var, value in seed.items():
                        slot = var_slots.get(var)
                        if slot is None:
                            extra[var] = value
                        else:
                            bindings[slot] = value
                for _ in self.root.run(state):
                    row: Solution = dict(extra)
                    for index, value in enumerate(bindings):
                        if value is not None:
                            row[variables[index]] = value
                    out.append(row)
                    if first_only:
                        return out
            return out

    def execute(
        self,
        graph: Graph,
        bindings: Optional[Solution] = None,
        seeds: Optional[Sequence[Solution]] = None,
    ) -> SPARQLResult:
        """Run the compiled plan over a graph, with optional pre-bindings.

        ``seeds`` joins the pattern with a seed relation (see
        :meth:`_pattern_rows`); solution modifiers, aggregates and the
        query form then apply to the joined rows as a whole.
        """
        if self.root is None:
            return evaluate(graph, self.query, initial=bindings, seeds=seeds)

        def pattern_rows(pattern: ast.Pattern, first_only: bool = False):
            return self._pattern_rows(graph, bindings, first_only, seeds)

        return evaluate(
            graph, self.query, initial=bindings, pattern_rows=pattern_rows
        )

    # -- introspection -----------------------------------------------------

    def explain(
        self, graph: Graph, bindings: Optional[Solution] = None
    ) -> str:
        """Human-readable plan for this query over a concrete graph.

        Shows the join order each BGP would use right now (the plan is
        re-ordered from live statistics on every execution), the
        per-pattern cardinality estimates at selection time, filter
        placement, and the process-wide plan-cache statistics.
        """
        lines: List[str] = []
        header = self.text.strip().splitlines()[0] if self.text else repr(
            self.query
        )
        lines.append(f"query: {header.strip()}")
        if self.params:
            lines.append(f"parameters: {', '.join(sorted(self.params))}")
        if self.root is None:
            lines.append("plan: no graph pattern (constant DESCRIBE)")
        with graph._write_lock:
            state = self._state(graph, bindings)
            for count, bgp in enumerate(
                _walk_bgps(self.root) if self.root is not None else ()
            ):
                order, filters_at, estimates = bgp.order_for(state)
                lines.append(
                    f"BGP #{count + 1} ({len(order)} patterns, "
                    f"{len(bgp.filters)} pushed filters):"
                )
                if not order:
                    lines.append("  (empty pattern)")
                for index, pattern in enumerate(order):
                    lines.append(
                        f"  {index + 1}. {pattern.n3()}"
                        f"   est={estimates[index]:.1f}"
                    )
                    for f in filters_at[index]:
                        lines.append(
                            f"     filter after this step: "
                            f"{_render_expression(f.expr)}"
                        )
        stats = get_plan_cache().stats()
        lines.append(
            f"plan cache: {stats.entries}/{stats.capacity} entries, "
            f"{stats.hits} hits, {stats.misses} misses, "
            f"{stats.evictions} evictions"
        )
        return "\n".join(lines)

    def __repr__(self) -> str:
        kind = type(self.query).__name__
        return f"<CompiledQuery {kind} ({len(self.variables)} variables)>"


def _query_expression_variables(parsed: ast.Query) -> List[Variable]:
    found: List[Variable] = []
    if isinstance(parsed, ast.SelectQuery):
        for condition in parsed.order_by:
            found.extend(_expression_variables(condition.expr))
        for aggregate in parsed.aggregates:
            if aggregate.expr is not None:
                found.extend(_expression_variables(aggregate.expr))
        found.extend(parsed.group_by)
        found.extend(parsed.variables)
    elif isinstance(parsed, ast.DescribeQuery):
        found.extend(t for t in parsed.terms if isinstance(t, Variable))
    return found


def _render_expression(expr: ast.Expression) -> str:
    if isinstance(expr, ast.TermExpr):
        return expr.term.n3() if not isinstance(expr.term, Variable) \
            else f"?{expr.term}"
    if isinstance(expr, ast.Comparison):
        return (
            f"({_render_expression(expr.left)} {expr.op} "
            f"{_render_expression(expr.right)})"
        )
    if isinstance(expr, ast.Arithmetic):
        return (
            f"({_render_expression(expr.left)} {expr.op} "
            f"{_render_expression(expr.right)})"
        )
    if isinstance(expr, ast.OrExpr):
        return (
            f"({_render_expression(expr.left)} || "
            f"{_render_expression(expr.right)})"
        )
    if isinstance(expr, ast.AndExpr):
        return (
            f"({_render_expression(expr.left)} && "
            f"{_render_expression(expr.right)})"
        )
    if isinstance(expr, ast.NotExpr):
        return f"!{_render_expression(expr.operand)}"
    if isinstance(expr, ast.Negate):
        return f"-{_render_expression(expr.operand)}"
    if isinstance(expr, ast.FunctionCall):
        args = ", ".join(_render_expression(a) for a in expr.args)
        return f"{expr.name}({args})"
    if isinstance(expr, ast.ExistsExpr):
        return "NOT EXISTS {…}" if expr.negated else "EXISTS {…}"
    return repr(expr)


# -- the prepared/compiled query cache ----------------------------------------


class PlanCacheStats:
    """A read-only snapshot of the cache counters."""

    __slots__ = ("hits", "misses", "evictions", "entries", "capacity")

    def __init__(self, hits, misses, evictions, entries, capacity) -> None:
        self.hits = hits
        self.misses = misses
        self.evictions = evictions
        self.entries = entries
        self.capacity = capacity

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:
        return (
            f"PlanCacheStats(hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions}, entries={self.entries}, "
            f"capacity={self.capacity})"
        )


class PlanCache:
    """A thread-safe LRU of :class:`CompiledQuery` keyed on query text.

    Repeat ``graph.query()`` calls with the same text skip the lexer,
    parser, and plan compilation entirely.  Hits, misses and evictions
    are published on the ``repro_rdf_plan_cache_*`` metric families.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, CompiledQuery]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(self, text: str) -> Optional[CompiledQuery]:
        registry = _registry()
        with self._lock:
            compiled = self._entries.get(text)
            if compiled is not None:
                self._entries.move_to_end(text)
                self._hits += 1
            else:
                self._misses += 1
        if compiled is not None:
            registry.counter(
                "repro_rdf_plan_cache_hits_total",
                "Prepared-query cache lookups that found a compiled plan.",
            ).inc()
        else:
            registry.counter(
                "repro_rdf_plan_cache_misses_total",
                "Prepared-query cache lookups that required compilation.",
            ).inc()
        return compiled

    def put(self, text: str, compiled: CompiledQuery) -> None:
        evicted = 0
        with self._lock:
            self._entries[text] = compiled
            self._entries.move_to_end(text)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1
                evicted += 1
            entries = len(self._entries)
        registry = _registry()
        if evicted:
            registry.counter(
                "repro_rdf_plan_cache_evictions_total",
                "Compiled plans evicted by the LRU bound.",
            ).inc(evicted)
        registry.gauge(
            "repro_rdf_plan_cache_entries",
            "Compiled plans currently resident in the prepared-query cache.",
        ).set(entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0
            self._evictions = 0

    def stats(self) -> PlanCacheStats:
        with self._lock:
            return PlanCacheStats(
                self._hits,
                self._misses,
                self._evictions,
                len(self._entries),
                self.capacity,
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        return f"<PlanCache {len(self)}/{self.capacity}>"


_plan_cache = PlanCache()


def get_plan_cache() -> PlanCache:
    """The process-wide prepared-query cache."""
    return _plan_cache


def reset_plan_cache(capacity: Optional[int] = None) -> PlanCache:
    """Install a fresh (optionally resized) cache; returns it."""
    global _plan_cache
    if capacity is None:
        capacity = _plan_cache.capacity
    _plan_cache = PlanCache(capacity)
    return _plan_cache


def compile_query(
    query: Union[str, ast.Query], *, use_cache: bool = True
) -> CompiledQuery:
    """Compile a query for planned execution, via the cache for text.

    Compilation time (lexer + parser + plan construction) is observed
    onto ``repro_rdf_plan_compile_seconds``.
    """
    if not isinstance(query, str):
        return CompiledQuery(query)
    if use_cache:
        compiled = _plan_cache.get(query)
        if compiled is not None:
            return compiled
    started = time.perf_counter()
    parsed, params = parse_query_params(query)
    compiled = CompiledQuery(parsed, text=query, params=params)
    _registry().histogram(
        "repro_rdf_plan_compile_seconds",
        "Wall-clock seconds to lex, parse and plan one query.",
    ).observe(time.perf_counter() - started)
    if use_cache:
        _plan_cache.put(query, compiled)
    return compiled


# -- prepared queries ---------------------------------------------------------


def _as_term(value: object) -> Node:
    return value if isinstance(value, Node) else Literal(value)


class PreparedQuery:
    """A compiled query with named ``$param`` substitution.

    ``prepare()`` parses once; each :meth:`execute` substitutes concrete
    terms for the ``$``-spelled variables and runs the compiled plan —
    the annotation store's per-item lookups go through this, which is
    what keeps repeat lookups free of lexer/parser work even though
    every call targets a different data item.
    """

    def __init__(self, compiled: CompiledQuery) -> None:
        self.compiled = compiled
        self.params = compiled.params

    def _bindings(
        self, params: Dict[str, object]
    ) -> Tuple[Solution, Optional[List[Solution]]]:
        """(scalar pre-bindings, seed relation or ``None``) of a call."""
        given = set(params)
        if given != set(self.params):
            missing = sorted(set(self.params) - given)
            unknown = sorted(given - set(self.params))
            problems = []
            if missing:
                problems.append(f"missing parameters: {', '.join(missing)}")
            if unknown:
                problems.append(f"unknown parameters: {', '.join(unknown)}")
            raise ValueError("; ".join(problems))
        initial: Solution = {}
        columns: List[Tuple[Variable, List[Node]]] = []
        for name, value in params.items():
            if isinstance(value, (list, tuple)):
                columns.append((Variable(name), [_as_term(v) for v in value]))
            else:
                initial[Variable(name)] = _as_term(value)
        if not columns:
            return initial, None
        names = [var for var, _ in columns]
        seeds = [
            dict(zip(names, row))
            for row in itertools.product(*(terms for _, terms in columns))
        ]
        return initial, seeds

    def execute(self, graph: Graph, **params: object) -> SPARQLResult:
        """Run over a graph with every ``$param`` bound.

        A parameter bound to a list or tuple of terms is a one-column
        seed relation (SPARQL ``VALUES``): the query answers for every
        seed in one execution — one plan, one lock hold — instead of
        one call per term.  Several sequence parameters seed their
        cross product; an empty sequence yields no solutions.  Values
        that are not RDF terms are wrapped as ``Literal``.
        """
        initial, seeds = self._bindings(params)
        return self.compiled.execute(graph, initial, seeds)

    def naive(self, graph: Graph, **params: object) -> SPARQLResult:
        """The same call through the naive reference evaluator.

        The differential oracle of :meth:`execute`, seed relations
        included.
        """
        initial, seeds = self._bindings(params)
        return evaluate(graph, self.compiled.query, initial=initial, seeds=seeds)

    def explain(self, graph: Graph, **params: object) -> str:
        """The plan this query would use on ``graph`` (see CompiledQuery).

        With a seed relation, the plan shown is the one every seed row
        shares (planned with the first row's bindings).
        """
        bindings: Optional[Solution] = None
        if params:
            bindings, seeds = self._bindings(params)
            if seeds:
                bindings = {**bindings, **seeds[0]}
        return self.compiled.explain(graph, bindings)

    def __repr__(self) -> str:
        names = ", ".join(sorted(self.params)) or "no parameters"
        return f"<PreparedQuery ({names})>"


def prepare(text: str) -> PreparedQuery:
    """Parse and compile a ``$param`` query once for repeated execution."""
    return PreparedQuery(compile_query(text, use_cache=True))


def explain(graph: Graph, query: str) -> str:
    """Convenience: compile (via the cache) and explain over ``graph``."""
    return compile_query(query).explain(graph)
