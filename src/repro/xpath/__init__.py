"""An XPath 1.0-subset engine over :mod:`repro.xmlutil` trees.

This engine backs two parts of the system:

* the WS-DAIX ``XPathExecute`` operation of :mod:`repro.daix`, evaluated
  against documents stored in :mod:`repro.xmldb`;
* the WSRF ``QueryResourceProperties`` operation of :mod:`repro.wsrf`,
  whose standard query dialect is XPath 1.0 over the property document.

Supported: all forward/reverse axes except ``namespace``, name/wildcard/
``node()``/``text()`` node tests, full expression grammar (predicates,
unions, arithmetic, comparisons, ``and``/``or``), the XPath 1.0 core
function library, and variable references.  Not supported: the ``id()``
function and the ``namespace`` axis, neither of which appears in DAIS use.

An expression is compiled once into a closure (:func:`compile_xpath`,
cached by text and prefix bindings); docs/PERF.md "XPath/XQuery path"
says what is bound when.
"""

from repro.xpath.errors import XPathError, XPathSyntaxError, XPathEvaluationError
from repro.xpath.evaluator import XPathEngine, compile_xpath
from repro.xpath.context import AttributeNode, XPathContext

__all__ = [
    "XPathError",
    "XPathSyntaxError",
    "XPathEvaluationError",
    "XPathEngine",
    "compile_xpath",
    "AttributeNode",
    "XPathContext",
]
