"""Hostile input is read in linear time (ROADMAP aim 3).

Every quantifier of the parser's token pattern is possessive, so no
match backtracks; the cold path re-scans only the construct that failed.
Each document here is about a megabyte of something a peer could send.
The parse must end within a generous per-megabyte bound with a tree or
:class:`XmlParseError` — never a hang, never a ``RecursionError``.  A
quantifier that stops being possessive turns the tag-name and
attribute-run cases quadratic or worse, and the alarm fails the test
instead of hanging it.
"""

import signal
import time
from contextlib import contextmanager

import pytest

from repro.xmlutil import XmlParseError, parse

#: Seconds allowed per megabyte of input (the slowest case takes ~1 s/MB
#: on a 2-CPU Xeon host; a backtracking pattern takes minutes at least).
SECONDS_PER_MB = 6.0
N = 100_000

CASES = {
    "unique attributes, no '>'": "<r "
    + " ".join(f'k{i}="v"' for i in range(1_000_000 // 9)),
    "unterminated <a>text openings": "<r>" + "<a>text" * N,
    "deep nesting": "<a>" * N + "</a>" * N,
    "nested rows of leaves, unterminated": "<r>" + "<a><b>x</b><b>y</b>" * (N // 2),
    "nested rows of leaves, closed at the end": "<r>"
    + "<a><b>x</b><b>y</b>" * (N // 2)
    + "</a>" * (N // 2)
    + "</r>",
    "distinct tag names": "<r>" + "".join(f"<t{i}/>" for i in range(N)) + "</r>",
    "character data, no end": "<r>" + "x" * 1_000_000,
    "one tag name, no '>'": "<" + "a" * 1_000_000,
    "one attribute name, no '='": "<r " + "k" * 1_000_000,
}


class _Deadline(Exception):
    pass


@contextmanager
def _deadline(seconds: float):
    def expire(signum, frame):
        raise _Deadline(f"no verdict within {seconds:.1f} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("name", list(CASES))
def test_hostile_document_gets_a_verdict_in_linear_time(name):
    document = CASES[name]
    bound = max(1.0, SECONDS_PER_MB * len(document) / 1e6)
    start = time.perf_counter()
    with _deadline(bound):
        try:
            parse(document)
        except XmlParseError:
            pass
    assert time.perf_counter() - start < bound
