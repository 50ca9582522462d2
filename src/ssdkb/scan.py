"""The scanner shared by the three text languages: Turtle, DL and SPARQL.

Each language is one regex: a skip prefix, then its token alternatives, then
`EOF` at the end of the text and `ERROR` for any other character. The
alternatives are tried in order and the first that matches wins; the name of
the group that matched is the token's kind. Every offset before the end
yields a match, so `finditer` never skips text. Parsers pull the tokens one
at a time when they need them, so no token list is built. Turtle works out
a line and column from an offset only when it raises an error.

One rule holds for every syntax error: the first unexpected character in the
text outranks any grammar error, as if the whole text had been tokenized
before parsing began.
"""

from __future__ import annotations

import re
from typing import Iterable

# whitespace and `#` comments
SKIP = r"(?:\s+|#[^\n]*)*"
IRIREF = r"<[^<>\s]*>"
# no raw line break inside "…", as in W3C Turtle and SPARQL
STRING = r'"(?:[^"\\\n\r]|\\.)*"'
DECIMAL = r"[+-]?[0-9]+\.[0-9]+"
INTEGER = r"[+-]?[0-9]+"


def language(skip: str, **tokens: str) -> re.Pattern:
    """The regex of a language: `skip`, then `tokens` (kind=pattern) in
    order, then the `EOF` and `ERROR` alternatives."""
    alternatives = "".join(f"(?P<{kind}>{rx})|" for kind, rx in tokens.items())
    return re.compile(rf"{skip}(?:{alternatives}(?P<EOF>\Z)|(?P<ERROR>.))")


def first_unexpected(matches: Iterable[re.Match]) -> re.Match | None:
    """The first `ERROR` token among `matches`, if there is one."""
    for m in matches:
        if m.lastgroup == "ERROR":
            return m
    return None


class Cursor:
    """A parser's tokens as `(kind, text, position)` triples, with one token
    of lookahead. A subclass sets `rx`, a regex made by `language`, and
    `Error`, its syntax error, made as `Error(message, position)`."""

    rx: re.Pattern
    Error: type[Exception]
    near = 10  # characters of text an unknown-token error quotes

    def __init__(self, text: str):
        self.text = text
        self.matches = self.rx.finditer(text)
        self.ahead = self._pull()

    def _pull(self) -> tuple[str, str, int]:
        m = next(self.matches)
        kind = m.lastgroup
        if kind == "ERROR":
            raise self.unknown(m)
        return kind, m[kind], m.start(kind)

    def peek(self) -> tuple[str, str, int]:
        return self.ahead

    def next(self) -> tuple[str, str, int]:
        tok = self.ahead
        if tok[0] != "EOF":
            self.ahead = self._pull()
        return tok

    def at(self, kind: str, text: str | None = None) -> bool:
        """Whether the next token is a `kind`; with `text`, one that reads
        `text` in any case."""
        tok = self.ahead
        return tok[0] == kind and (text is None or tok[1].lower() == text)

    def expect(self, kind: str, text: str | None = None) -> str:
        """The text of the next token, which must be as `at` describes."""
        if not self.at(kind, text):
            tok = self.ahead
            wanted = kind if text is None else repr(text)
            raise self.error(f"expected {wanted}, found {tok[1]!r}", tok[2])
        return self.next()[1]

    def error(self, message: str, position: int) -> Exception:
        """The error for a grammar error at `position`, unless an unexpected
        character follows the lookahead: then the error for the first one."""
        bad = first_unexpected(self.matches)
        return self.Error(message, position) if bad is None else self.unknown(bad)

    def unknown(self, m: re.Match) -> Exception:
        """The error for the unexpected character `m`, reported from the end
        of the previous token."""
        start = m.start()
        return self.Error(f"unknown token near {self.text[start:start + self.near]!r}", start)
