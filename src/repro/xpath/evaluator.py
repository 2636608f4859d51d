"""The XPath compiler: an expression becomes one closure ``fn(node, ctx)``.

Everything that depends only on (AST, prefix bindings) is decided once,
at compile time: name tests are resolved to a :class:`QName`, each step
is a closure over its axis, test and predicates, and each step knows
statically whether its output needs sorting.  A node-set is *flat* when
it is in document order, duplicate-free and no member is an ancestor of
another; child/attribute/self steps keep a flat input flat without
looking at document order, a descendant step leaves it ordered but
nested, and only where order cannot be proven does a step call
``sort_document_order`` (which builds the document maps).  Per-run state
— the document, variables, extension functions, predicate focus — rides
the :class:`XPathContext`, so one closure serves every thread.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from typing import Callable

from repro.obs import get_tracer
from repro.xmlutil import XmlElement
from repro.xmlutil.tree import Comment, Text
from repro.xpath import ast
from repro.xpath.context import (
    AttributeNode,
    DocumentContext,
    DocumentNode,
    XPathContext,
    XPathNode,
    string_value,
)
from repro.xpath.errors import XPathEvaluationError
from repro.xpath.functions import CORE_FUNCTIONS, to_boolean, to_number, to_string
from repro.xpath.parser import parse, parse_prefix

#: What is statically known about a node-set valued expression.
_UNKNOWN, _ORDERED, _FLAT = 0, 1, 2


@lru_cache(maxsize=512)
def compile_xpath(expression: str, namespaces: tuple = ()) -> Callable:
    """Parse and compile (with caching) *expression* into ``fn(node, ctx)``.

    *namespaces* is the prefix → URI binding as a tuple of pairs (it is
    part of the cache key: name tests are resolved against it here).
    """
    return _compile(parse(expression), dict(namespaces))[0]


def compile_prefix(text: str, start: int, namespaces: tuple = ()) -> tuple[Callable, int]:
    """Compile the longest expression at ``text[start:]`` → (fn, end offset)."""
    tree, end = parse_prefix(text, start)
    return _compile(tree, dict(namespaces))[0], end


class XPathEngine:
    """A reusable evaluator.

    :param namespaces: prefix → URI bindings for name tests in expressions.
    :param functions: extension functions merged over the XPath core library.
    """

    def __init__(
        self,
        namespaces: dict[str, str] | None = None,
        functions: dict | None = None,
    ) -> None:
        self._namespaces = dict(namespaces or {})
        self.namespace_key = tuple(sorted(self._namespaces.items()))
        self._functions = dict(CORE_FUNCTIONS)
        if functions:
            self._functions.update(functions)

    def context(
        self, document: DocumentContext, variables: dict, node: XPathNode | None = None
    ) -> XPathContext:
        """The top-level dynamic context for one run over *document*."""
        if node is None:
            node = document.document
        return XPathContext(
            document, node, 1, 1, variables, self._namespaces, self._functions
        )

    def evaluate(
        self,
        expression: str,
        root: XmlElement,
        context_node: XPathNode | None = None,
        variables: dict | None = None,
    ):
        """Evaluate *expression* against the document rooted at *root*.

        Returns one of the four XPath value types; node-sets come back as
        lists in document order.  Each evaluation is one
        ``xpath.evaluate`` span carrying the expression and result shape.
        """
        return self.evaluate_each(expression, [root], context_node, variables)[0]

    def evaluate_each(
        self,
        expression: str,
        roots: list[XmlElement],
        context_node: XPathNode | None = None,
        variables: dict | None = None,
    ) -> list:
        """One statement over many documents: compile once, run the
        closure per root, one ``xpath.evaluate`` span; a value per root."""
        with get_tracer().span(
            "xpath.evaluate", expression=expression, documents=len(roots)
        ) as span:
            run = compile_xpath(expression, self.namespace_key)
            variables = dict(variables or {})
            results = []
            for root in roots:
                ctx = self.context(DocumentContext(root), variables, context_node)
                results.append(run(ctx.node, ctx))
            if span.recording and results:
                span.set_attribute("result_type", type(results[0]).__name__)
                if isinstance(results[0], list):
                    span.set_attribute("result_nodes", sum(map(len, results)))
            return results

    def select(self, expression: str, root: XmlElement, **kwargs) -> list[XPathNode]:
        """Evaluate and require a node-set result."""
        result = self.evaluate(expression, root, **kwargs)
        if not isinstance(result, list):
            raise XPathEvaluationError(
                f"expression {expression!r} returned a "
                f"{type(result).__name__}, not a node-set"
            )
        return result


# -- expressions: AST node -> (fn(node, ctx), static order of a node-set result)


def _compile(tree: ast.Expr, namespaces: dict) -> tuple[Callable, int]:
    return _COMPILERS[type(tree)](tree, namespaces)


def _literal(tree, namespaces):
    value = tree.value
    return (lambda node, ctx: value), _UNKNOWN


def _variable(tree: ast.VariableRef, namespaces):
    name = tree.name

    def variable(node, ctx):
        try:
            return ctx.variables[name]
        except KeyError:
            raise XPathEvaluationError(f"unbound variable ${name}") from None

    return variable, _UNKNOWN


def _function(tree: ast.FunctionCall, namespaces):
    name = tree.name
    args = [_compile(arg, namespaces)[0] for arg in tree.args]

    def call(node, ctx):
        # ctx.node is node here: calls occur at top level or in a
        # predicate, and both hand their focus down unchanged.
        function = ctx.functions.get(name)
        if function is None:
            raise XPathEvaluationError(f"unknown function {name}()")
        values = [arg(node, ctx) for arg in args]
        try:
            return function(ctx, *values)
        except TypeError as exc:
            raise XPathEvaluationError(f"{name}(): {exc}") from exc

    return call, _UNKNOWN


def _connective(tree, namespaces):
    parts = [_compile(part, namespaces)[0] for part in tree.parts]
    stop = isinstance(tree, ast.OrExpr)  # the value that short-circuits

    def connective(node, ctx):
        for part in parts:
            if to_boolean(part(node, ctx)) is stop:
                return stop
        return not stop

    return connective, _UNKNOWN


def _negate(tree: ast.NegateExpr, namespaces):
    operand = _compile(tree.operand, namespaces)[0]
    return (lambda node, ctx: -to_number(operand(node, ctx))), _UNKNOWN


def _div(left: float, right: float) -> float:
    if right == 0:
        if left == 0 or math.isnan(left):
            return math.nan
        return math.inf if left > 0 else -math.inf
    return left / right


def _mod(left: float, right: float) -> float:
    if right == 0 or math.isnan(left) or math.isnan(right):
        return math.nan
    # XPath mod keeps the sign of the dividend (like fmod).
    return math.fmod(left, right)


_ARITHMETIC = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "div": _div,
    "mod": _mod,
}


def _arithmetic(tree: ast.ArithmeticExpr, namespaces):
    apply = _ARITHMETIC[tree.op]
    left = _compile(tree.left, namespaces)[0]
    right = _compile(tree.right, namespaces)[0]
    return (
        lambda node, ctx: apply(
            to_number(left(node, ctx)), to_number(right(node, ctx))
        )
    ), _UNKNOWN


def _comparison(tree: ast.ComparisonExpr, namespaces):
    op = tree.op
    left = _compile(tree.left, namespaces)[0]
    right = _compile(tree.right, namespaces)[0]
    return (
        lambda node, ctx: _compare(op, left(node, ctx), right(node, ctx))
    ), _UNKNOWN


def _union(tree: ast.UnionExpr, namespaces):
    parts = [_compile(part, namespaces)[0] for part in tree.parts]

    def union(node, ctx):
        combined: list[XPathNode] = []
        for part in parts:
            value = part(node, ctx)
            if not isinstance(value, list):
                raise XPathEvaluationError("union operands must be node-sets")
            combined.extend(value)
        return ctx.document.sort_document_order(combined)

    return union, _ORDERED


def _filter_expr(tree: ast.FilterExpr, namespaces):
    primary, order = _compile(tree.primary, namespaces)
    predicates = [_predicate(p, namespaces) for p in tree.predicates]

    def filtered(node, ctx):
        nodes = primary(node, ctx)
        if not isinstance(nodes, list):
            raise XPathEvaluationError("predicates require a node-set")
        if order == _UNKNOWN and len(nodes) > 1:
            nodes = ctx.document.sort_document_order(nodes)
        for predicate in predicates:
            nodes = predicate(nodes, ctx)
        return nodes

    return filtered, max(order, _ORDERED)


def _path_expr(tree: ast.PathExpr, namespaces):
    start, order = _compile(tree.start, namespaces)
    steps = tree.path.steps
    if tree.descendant_glue:
        steps = (ast.Step("descendant-or-self", ast.NodeTest("node")),) + steps
    compiled = _steps(steps, namespaces)
    # A start of at most one node is flat whatever produced it — the
    # `$p/name` of a FLWOR binding never has to look at document order.
    flat, flat_order = _chain(compiled, _FLAT)
    nested, nested_order = _chain(compiled, _ORDERED)

    def path(node, ctx):
        nodes = start(node, ctx)
        if not isinstance(nodes, list):
            raise XPathEvaluationError("a path step requires a node-set start")
        if order == _FLAT or len(nodes) <= 1:
            return flat(nodes, ctx)
        if order == _UNKNOWN:
            nodes = ctx.document.sort_document_order(nodes)
        return nested(nodes, ctx)

    return path, flat_order if order == _FLAT else nested_order


def _location_path(tree: ast.LocationPath, namespaces):
    walk, order = _chain(_steps(tree.steps, namespaces), _FLAT)
    if tree.absolute:
        return (lambda node, ctx: walk([ctx.document.document], ctx)), order
    return (lambda node, ctx: walk([node], ctx)), order


_COMPILERS = {
    ast.NumberLiteral: _literal,
    ast.StringLiteral: _literal,
    ast.VariableRef: _variable,
    ast.FunctionCall: _function,
    ast.OrExpr: _connective,
    ast.AndExpr: _connective,
    ast.NegateExpr: _negate,
    ast.ArithmeticExpr: _arithmetic,
    ast.ComparisonExpr: _comparison,
    ast.UnionExpr: _union,
    ast.FilterExpr: _filter_expr,
    ast.PathExpr: _path_expr,
    ast.LocationPath: _location_path,
}


# -- steps -------------------------------------------------------------------


def _steps(steps, namespaces: dict) -> list[tuple[Callable, str]]:
    return [(_step(step, namespaces), step.axis) for step in steps]


def _chain(compiled: list, order: int) -> tuple[Callable, int]:
    """Plan *compiled* steps for an input of static *order* (ordered at
    least) → (fn(nodes, ctx) -> nodes, static order of the output)."""
    plan = []
    for run, axis in compiled:
        if axis == "self":
            sort = False
        elif axis == "attribute":  # right behind their owner, never nested
            sort, order = False, _FLAT
        elif order == _FLAT and axis == "child":
            sort = False
        elif order == _FLAT and axis in ("descendant", "descendant-or-self"):
            sort, order = False, _ORDERED
        else:
            sort, order = True, _ORDERED
        plan.append((run, sort))

    def walk(nodes, ctx):
        for run, sort in plan:
            nodes = run(nodes, ctx, sort)
        return nodes

    return walk, order


def _step(step: ast.Step, namespaces: dict) -> Callable:
    axis = _AXES[step.axis]
    test = _node_test(step.test, step.axis, namespaces)
    predicates = [_predicate(p, namespaces) for p in step.predicates]
    reverse = step.axis in _REVERSE_AXES

    def run(nodes, ctx, sort):
        document = ctx.document
        gathered: list[XPathNode] = []
        for node in nodes:
            matched = axis(node, document)  # in axis order: nearest first
            if test is not None:
                matched = test(matched)
            for predicate in predicates:
                matched = predicate(matched, ctx)
            if reverse:
                matched = matched[::-1]
            gathered += matched
        # One context node's matches are already in document order.
        if sort and len(nodes) > 1:
            return document.sort_document_order(gathered)
        return gathered

    return run


def _predicate(tree: ast.Expr, namespaces: dict) -> Callable:
    """fn(nodes in axis order, ctx) -> the nodes the predicate keeps."""
    if isinstance(tree, ast.NumberLiteral):
        index = int(tree.value) if tree.value.is_integer() else 0
        if index < 1:
            return lambda nodes, ctx: []
        return lambda nodes, ctx: nodes[index - 1 : index]
    test = _compile(tree, namespaces)[0]

    def keep(nodes, ctx):
        if not nodes:
            return nodes
        focus = ctx.with_node(None, 0, len(nodes))
        kept: list[XPathNode] = []
        for position, node in enumerate(nodes, start=1):
            focus.node, focus.position = node, position
            value = test(node, focus)
            if value == position if isinstance(value, float) else to_boolean(value):
                kept.append(node)
        return kept

    return keep


def _node_test(test: ast.NodeTest, axis: str, namespaces: dict) -> Callable | None:
    """fn(candidates) -> those that pass, or None when every node on the
    axis does.  Names are resolved here, once, not per candidate."""
    if test.kind == "node":
        return None
    if test.kind == "text":
        return lambda nodes: [c for c in nodes if isinstance(c, Text)]
    if test.kind == "comment":
        return lambda nodes: [c for c in nodes if isinstance(c, Comment)]
    if test.kind == "processing-instruction":
        return lambda nodes: []  # PIs are not retained by the parser
    if test.prefix and test.prefix not in namespaces:
        raise XPathEvaluationError(
            f"undeclared namespace prefix {test.prefix!r} in expression"
        )
    uri = namespaces[test.prefix] if test.prefix else ""
    local = test.local
    # Name tests apply to the principal node type of the axis: attributes
    # on the attribute axis (which yields nothing else), elements elsewhere.
    if axis == "attribute":
        if test.kind == "name":
            return lambda nodes: [
                c for c in nodes if c.name.local == local and c.name.namespace == uri
            ]
        if test.prefix:
            return lambda nodes: [c for c in nodes if c.name.namespace == uri]
        return None
    if test.kind == "name":
        return lambda nodes: [
            c
            for c in nodes
            if isinstance(c, XmlElement)
            and c.tag.local == local
            and c.tag.namespace == uri
        ]
    if test.prefix:
        return lambda nodes: [
            c for c in nodes if isinstance(c, XmlElement) and c.tag.namespace == uri
        ]
    return lambda nodes: [c for c in nodes if isinstance(c, XmlElement)]


# -- axes: fn(node, document) -> nodes in axis order (reverse axes nearest first)


def _children(node: XPathNode, document=None) -> list[XPathNode]:
    """The live child list of *node*: callers must not mutate it."""
    if isinstance(node, XmlElement):
        return node.children
    if isinstance(node, DocumentNode):
        return [node.root]
    return []


def _descendants(node: XPathNode, document=None) -> list[XPathNode]:
    out: list[XPathNode] = []
    stack = _children(node)[::-1]
    while stack:
        child = stack.pop()
        out.append(child)
        if isinstance(child, XmlElement):
            stack.extend(reversed(child.children))
    return out


def _ancestors(node: XPathNode, document: DocumentContext) -> list[XPathNode]:
    out: list[XPathNode] = []
    parent = document.parent_of(node)
    while parent is not None:
        out.append(parent)
        parent = document.parent_of(parent)
    return out


def _siblings(
    node: XPathNode, document: DocumentContext, forward: bool
) -> list[XPathNode]:
    if isinstance(node, (AttributeNode, DocumentNode)):
        return []
    parent = document.parent_of(node)
    if parent is None:
        return []
    siblings = _children(parent)
    index = next(
        (i for i, sibling in enumerate(siblings) if sibling is node), None
    )
    if index is None:
        return []
    if forward:
        return siblings[index + 1 :]
    return siblings[:index][::-1]


def _following(node: XPathNode, document: DocumentContext) -> list[XPathNode]:
    out: list[XPathNode] = []
    if isinstance(node, AttributeNode):
        # Attributes precede their owner's children in document order.
        node = node.owner
        out.extend(_descendants(node))
    current: XPathNode | None = node
    while current is not None and not isinstance(current, DocumentNode):
        for sibling in _siblings(current, document, forward=True):
            out.append(sibling)
            out.extend(_descendants(sibling))
        current = document.parent_of(current)
    return out


def _preceding(node: XPathNode, document: DocumentContext) -> list[XPathNode]:
    out: list[XPathNode] = []
    current: XPathNode | None = node
    while current is not None and not isinstance(current, DocumentNode):
        for sibling in _siblings(current, document, forward=False):
            out.extend(reversed(_descendants(sibling)))
            out.append(sibling)
        current = document.parent_of(current)
    return out


_AXES = {
    "self": lambda node, document: [node],
    "child": _children,
    "attribute": lambda node, document: (
        document.attributes_of(node) if isinstance(node, XmlElement) else []
    ),
    "parent": lambda node, document: (
        [] if (parent := document.parent_of(node)) is None else [parent]
    ),
    "ancestor": _ancestors,
    "ancestor-or-self": lambda node, document: [node] + _ancestors(node, document),
    "descendant": _descendants,
    "descendant-or-self": lambda node, document: [node] + _descendants(node),
    "following-sibling": lambda node, document: _siblings(node, document, True),
    "preceding-sibling": lambda node, document: _siblings(node, document, False),
    "following": _following,
    "preceding": _preceding,
}
_REVERSE_AXES = {"ancestor", "ancestor-or-self", "preceding", "preceding-sibling"}


# -- comparisons (XPath 1.0 §3.4) ----------------------------------------------

_RELATIONS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}
_FLIPPED = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}


def _compare(op: str, left, right) -> bool:
    if isinstance(right, list):
        if not isinstance(left, list):
            left, right, op = right, left, _FLIPPED.get(op, op)
        else:  # existential over both sets' string-values
            right_values = [string_value(n) for n in right]
            return any(
                _compare_atomic(op, string_value(n), value)
                for n in left
                for value in right_values
            )
    elif not isinstance(left, list):
        return _compare_atomic(op, left, right)
    # A node-set against an atomic: boolean(node-set) for a boolean, else
    # some node's string-value, as a number when the other side is one.
    if isinstance(right, bool):
        return _compare_atomic(op, bool(left), right)
    relation = _RELATIONS[op]
    if isinstance(right, float) or op in _FLIPPED:
        number = to_number(right)
        for node in left:
            if relation(to_number(string_value(node)), number):
                return True
        return False
    for node in left:
        if relation(string_value(node), right):
            return True
    return False


def _compare_atomic(op: str, left, right) -> bool:
    relation = _RELATIONS[op]
    # A NaN operand makes every relation but != false, as IEEE floats do.
    if op in _FLIPPED:
        return relation(to_number(left), to_number(right))
    if isinstance(left, bool) or isinstance(right, bool):
        return relation(to_boolean(left), to_boolean(right))
    if isinstance(left, float) or isinstance(right, float):
        return relation(to_number(left), to_number(right))
    return relation(to_string(left), to_string(right))
