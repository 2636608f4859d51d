"""The AST-walking interpreter the engine used before expressions were
compiled, kept verbatim as the oracle for the compiled path.

:class:`ReferenceXPathEngine` re-dispatches on the node type per
evaluation, resolves and validates a ``QName`` per candidate, sorts after
every step and walks ``_descendants`` quadratically.  It is slow and
obviously right, which is what a reference is for:
``test_compiled_differential.py`` checks the compiled closures against
it by node identity.  The parser, the coercions and the function library
are shared with :mod:`repro.xpath` (a change there is meant for both).

Three deliberate departures from the old module, nothing else:

* ``evaluate`` takes an optional ``document=`` so a test can run both
  evaluators over one :class:`DocumentContext` and compare attribute
  nodes by identity;
* ``_walk`` hands ``_filter`` its candidates in document order on every
  reverse axis.  The old code reversed ``ancestor``, ``ancestor-or-self``
  and ``preceding-sibling`` twice, so ``preceding-sibling::*[1]`` was the
  *farthest* sibling (``preceding`` was right); fixed on both sides in
  the PR that compiled the path;
* ``compile_xpath`` is called ``_parse_cached`` (the public name now
  returns a closure).
"""

from __future__ import annotations

import math
from functools import lru_cache

from repro.obs import get_tracer
from repro.xmlutil import QName, XmlElement
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
from repro.xpath.parser import parse


@lru_cache(maxsize=512)
def _parse_cached(expression: str) -> ast.Expr:
    """Parse (with caching) an XPath expression into its AST."""
    return parse(expression)


class ReferenceXPathEngine:
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
        self._functions = dict(CORE_FUNCTIONS)
        if functions:
            self._functions.update(functions)

    def evaluate(
        self,
        expression: str,
        root: XmlElement,
        context_node: XPathNode | None = None,
        variables: dict | None = None,
        document: DocumentContext | None = None,
    ):
        """Evaluate *expression* against the document rooted at *root*.

        Returns one of the four XPath value types; node-sets come back as
        lists in document order.  Each evaluation is one
        ``xpath.evaluate`` span carrying the expression and result shape.
        """
        with get_tracer().span("xpath.evaluate", expression=expression) as span:
            tree = _parse_cached(expression)
            if document is None:
                document = DocumentContext(root)
            ctx = XPathContext(
                document=document,
                node=context_node if context_node is not None else document.document,
                variables=dict(variables or {}),
                namespaces=self._namespaces,
            )
            result = self._eval(tree, ctx)
            if span.recording:
                span.set_attribute("result_type", type(result).__name__)
                if isinstance(result, list):
                    span.set_attribute("result_nodes", len(result))
            return result

    def select(self, expression: str, root: XmlElement, **kwargs) -> list[XPathNode]:
        """Evaluate and require a node-set result."""
        result = self.evaluate(expression, root, **kwargs)
        if not isinstance(result, list):
            raise XPathEvaluationError(
                f"expression {expression!r} returned a "
                f"{type(result).__name__}, not a node-set"
            )
        return result

    # -- dispatch -----------------------------------------------------------

    def _eval(self, node: ast.Expr, ctx: XPathContext):
        method = self._DISPATCH[type(node)]
        return method(self, node, ctx)

    def _eval_number(self, node: ast.NumberLiteral, ctx: XPathContext) -> float:
        return node.value

    def _eval_string(self, node: ast.StringLiteral, ctx: XPathContext) -> str:
        return node.value

    def _eval_variable(self, node: ast.VariableRef, ctx: XPathContext):
        try:
            return ctx.variables[node.name]
        except KeyError:
            raise XPathEvaluationError(f"unbound variable ${node.name}") from None

    def _eval_function(self, node: ast.FunctionCall, ctx: XPathContext):
        function = self._functions.get(node.name)
        if function is None:
            raise XPathEvaluationError(f"unknown function {node.name}()")
        args = [self._eval(arg, ctx) for arg in node.args]
        try:
            return function(ctx, *args)
        except TypeError as exc:
            raise XPathEvaluationError(f"{node.name}(): {exc}") from exc

    def _eval_or(self, node: ast.OrExpr, ctx: XPathContext) -> bool:
        return any(to_boolean(self._eval(part, ctx)) for part in node.parts)

    def _eval_and(self, node: ast.AndExpr, ctx: XPathContext) -> bool:
        return all(to_boolean(self._eval(part, ctx)) for part in node.parts)

    def _eval_negate(self, node: ast.NegateExpr, ctx: XPathContext) -> float:
        return -to_number(self._eval(node.operand, ctx))

    def _eval_arithmetic(self, node: ast.ArithmeticExpr, ctx: XPathContext) -> float:
        left = to_number(self._eval(node.left, ctx))
        right = to_number(self._eval(node.right, ctx))
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if node.op == "div":
            if right == 0:
                if left == 0 or math.isnan(left):
                    return math.nan
                return math.inf if left > 0 else -math.inf
            return left / right
        if node.op == "mod":
            if right == 0 or math.isnan(left) or math.isnan(right):
                return math.nan
            # XPath mod keeps the sign of the dividend (like fmod).
            return math.fmod(left, right)
        raise XPathEvaluationError(f"unknown arithmetic operator {node.op}")

    def _eval_comparison(self, node: ast.ComparisonExpr, ctx: XPathContext) -> bool:
        left = self._eval(node.left, ctx)
        right = self._eval(node.right, ctx)
        return _compare(node.op, left, right)

    def _eval_union(self, node: ast.UnionExpr, ctx: XPathContext) -> list:
        combined: list[XPathNode] = []
        for part in node.parts:
            value = self._eval(part, ctx)
            if not isinstance(value, list):
                raise XPathEvaluationError("union operands must be node-sets")
            combined.extend(value)
        return ctx.document.sort_document_order(combined)

    def _eval_filter(self, node: ast.FilterExpr, ctx: XPathContext) -> list:
        value = self._eval(node.primary, ctx)
        if not isinstance(value, list):
            raise XPathEvaluationError("predicates require a node-set")
        nodes = ctx.document.sort_document_order(value)
        for predicate in node.predicates:
            nodes = self._filter(nodes, predicate, ctx)
        return nodes

    def _eval_path(self, node: ast.PathExpr, ctx: XPathContext) -> list:
        start = self._eval(node.start, ctx)
        if not isinstance(start, list):
            raise XPathEvaluationError("a path step requires a node-set start")
        if node.descendant_glue:
            glue = ast.Step("descendant-or-self", ast.NodeTest("node"))
            steps = (glue,) + node.path.steps
        else:
            steps = node.path.steps
        return self._walk(start, steps, ctx)

    def _eval_location_path(self, node: ast.LocationPath, ctx: XPathContext) -> list:
        if node.absolute:
            start: list[XPathNode] = [ctx.document.document]
        else:
            start = [ctx.node]
        return self._walk(start, node.steps, ctx)

    _DISPATCH = {}

    # -- path machinery ------------------------------------------------------

    def _walk(
        self, start: list[XPathNode], steps: tuple[ast.Step, ...], ctx: XPathContext
    ) -> list:
        current = ctx.document.sort_document_order(list(start))
        for step in steps:
            gathered: list[XPathNode] = []
            for node in current:
                candidates = self._axis(step.axis, node, ctx.document)
                if step.axis in _NEAREST_FIRST_AXES:
                    candidates.reverse()
                matched = [
                    c for c in candidates if _node_test(step.test, c, step.axis, ctx)
                ]
                for predicate in step.predicates:
                    reverse = step.axis in _REVERSE_AXES
                    matched = self._filter(matched, predicate, ctx, reverse)
                gathered.extend(matched)
            current = ctx.document.sort_document_order(gathered)
        return current

    def _filter(
        self,
        nodes: list[XPathNode],
        predicate: ast.Expr,
        ctx: XPathContext,
        reverse: bool = False,
    ) -> list[XPathNode]:
        ordered = list(reversed(nodes)) if reverse else nodes
        kept: list[XPathNode] = []
        size = len(ordered)
        for index, node in enumerate(ordered, start=1):
            sub = ctx.with_node(node, index, size)
            value = self._eval(predicate, sub)
            if isinstance(value, float):
                selected = value == index
            else:
                selected = to_boolean(value)
            if selected:
                kept.append(node)
        if reverse:
            kept.reverse()
        return kept

    def _axis(
        self, axis: str, node: XPathNode, document: DocumentContext
    ) -> list[XPathNode]:
        if axis == "self":
            return [node]
        if axis == "child":
            return _children(node)
        if axis == "attribute":
            if isinstance(node, XmlElement):
                return list(document.attributes_of(node))
            return []
        if axis == "parent":
            parent = document.parent_of(node)
            return [parent] if parent is not None else []
        if axis == "ancestor":
            return _ancestors(node, document)
        if axis == "ancestor-or-self":
            return [node] + _ancestors(node, document)
        if axis == "descendant":
            return _descendants(node)
        if axis == "descendant-or-self":
            return [node] + _descendants(node)
        if axis == "following-sibling":
            return _siblings(node, document, forward=True)
        if axis == "preceding-sibling":
            return _siblings(node, document, forward=False)
        if axis == "following":
            return _following(node, document)
        if axis == "preceding":
            return _preceding(node, document)
        raise XPathEvaluationError(f"unsupported axis {axis!r}")


def _children(node: XPathNode) -> list[XPathNode]:
    if isinstance(node, DocumentNode):
        return [node.root]
    if isinstance(node, XmlElement):
        return list(node.children)
    return []


def _descendants(node: XPathNode) -> list[XPathNode]:
    out: list[XPathNode] = []
    stack = _children(node)
    while stack:
        child = stack.pop(0)
        out.append(child)
        if isinstance(child, XmlElement):
            stack = list(child.children) + stack
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
    if isinstance(node, AttributeNode):
        return []
    parent = document.parent_of(node)
    if parent is None or isinstance(node, DocumentNode):
        return []
    siblings = _children(parent)
    index = next(
        (i for i, sibling in enumerate(siblings) if sibling is node), None
    )
    if index is None:
        return []
    if forward:
        return siblings[index + 1 :]
    return list(reversed(siblings[:index]))


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
    out.reverse()
    return out


_REVERSE_AXES = {"ancestor", "ancestor-or-self", "preceding", "preceding-sibling"}
#: Reverse axes whose helper returns nearest-first rather than document order.
_NEAREST_FIRST_AXES = {"ancestor", "ancestor-or-self", "preceding-sibling"}


def _node_test(
    test: ast.NodeTest, node: XPathNode, axis: str, ctx: XPathContext
) -> bool:
    if test.kind == "node":
        return True
    if test.kind == "text":
        return isinstance(node, Text)
    if test.kind == "comment":
        return isinstance(node, Comment)
    if test.kind == "processing-instruction":
        return False  # PIs are not retained by the parser
    # Name tests apply to the principal node type of the axis.
    if axis == "attribute":
        if not isinstance(node, AttributeNode):
            return False
        name = node.name
    else:
        if not isinstance(node, XmlElement):
            return False
        name = node.tag
    if test.kind == "wildcard":
        if test.prefix:
            uri = _resolve_prefix(test.prefix, ctx)
            return name.namespace == uri
        return True
    uri = _resolve_prefix(test.prefix, ctx) if test.prefix else ""
    return name == QName(uri, test.local)


def _resolve_prefix(prefix: str, ctx: XPathContext) -> str:
    try:
        return ctx.namespaces[prefix]
    except KeyError:
        raise XPathEvaluationError(
            f"undeclared namespace prefix {prefix!r} in expression"
        ) from None


def _compare(op: str, left, right) -> bool:
    left_set = isinstance(left, list)
    right_set = isinstance(right, list)
    # Per XPath 1.0 §3.4: node-set vs boolean compares boolean(node-set).
    if left_set and isinstance(right, bool):
        return _compare_atomic(op, to_boolean(left), right)
    if right_set and isinstance(left, bool):
        return _compare_atomic(op, left, to_boolean(right))
    if left_set and right_set:
        left_values = [string_value(n) for n in left]
        right_values = [string_value(n) for n in right]
        return any(
            _compare_atomic(op, lv, rv) for lv in left_values for rv in right_values
        )
    if left_set:
        return any(_compare_node(op, string_value(n), right) for n in left)
    if right_set:
        flipped = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}.get(op, op)
        return any(_compare_node(flipped, string_value(n), left) for n in right)
    return _compare_atomic(op, left, right)


def _compare_node(op: str, node_string: str, other) -> bool:
    """Existential comparison of one node's string-value with an atomic."""
    if isinstance(other, float) or op in ("<", "<=", ">", ">="):
        return _compare_atomic(op, to_number(node_string), other)
    return _compare_atomic(op, node_string, other)


def _compare_atomic(op: str, left, right) -> bool:
    if op in ("=", "!="):
        if isinstance(left, bool) or isinstance(right, bool):
            result = to_boolean(left) == to_boolean(right)
        elif isinstance(left, float) or isinstance(right, float):
            result = to_number(left) == to_number(right)
        else:
            result = to_string(left) == to_string(right)
        return result if op == "=" else not result
    lnum, rnum = to_number(left), to_number(right)
    if math.isnan(lnum) or math.isnan(rnum):
        return False
    if op == "<":
        return lnum < rnum
    if op == "<=":
        return lnum <= rnum
    if op == ">":
        return lnum > rnum
    return lnum >= rnum


ReferenceXPathEngine._DISPATCH = {
    ast.NumberLiteral: ReferenceXPathEngine._eval_number,
    ast.StringLiteral: ReferenceXPathEngine._eval_string,
    ast.VariableRef: ReferenceXPathEngine._eval_variable,
    ast.FunctionCall: ReferenceXPathEngine._eval_function,
    ast.OrExpr: ReferenceXPathEngine._eval_or,
    ast.AndExpr: ReferenceXPathEngine._eval_and,
    ast.NegateExpr: ReferenceXPathEngine._eval_negate,
    ast.ArithmeticExpr: ReferenceXPathEngine._eval_arithmetic,
    ast.ComparisonExpr: ReferenceXPathEngine._eval_comparison,
    ast.UnionExpr: ReferenceXPathEngine._eval_union,
    ast.FilterExpr: ReferenceXPathEngine._eval_filter,
    ast.PathExpr: ReferenceXPathEngine._eval_path,
    ast.LocationPath: ReferenceXPathEngine._eval_location_path,
}
