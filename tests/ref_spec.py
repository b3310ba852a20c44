"""The `.validate` parser as it was before its grammar became a table.

`parse_spec` walks the tokens through a `take` closure that advances a
shared position and checks the keywords by hand. It is the reference for
the package's `parse_spec`: for any text both must give the same name and
links, or raise the same error at the same place. It takes its tokens from
`ref_walks.tokenize_spec`, a character-by-character tokenizer that reads
the whole text, and raises its first character error, before any rule is
checked.

It lives apart from `oracle.py`, which the benchmark loads while it sets
up, so that its size costs the benchmark nothing.
"""

from __future__ import annotations

from flowgraphs.validator import (
    LinkAssertion,
    OrderError,
    ValidateSyntaxError,
    ValidationSpec,
)

from ref_walks import tokenize_spec


def parse_spec(text: str) -> ValidationSpec:
    """Parse a `.validate` document.

    Raises ValidateSyntaxError on malformed input and OrderError when a
    cfNext assertion follows a dfNext assertion.
    """
    tokens = tokenize_spec(text)
    pos = 0

    def take(kind: str, what: str) -> tuple[str, str, int, int]:
        nonlocal pos
        if pos >= len(tokens) or tokens[pos][0] != kind:
            if pos < len(tokens):
                _, value, line, col = tokens[pos]
                raise ValidateSyntaxError(f"expected {what}, found {value!r}", line, col)
            last = tokens[-1] if tokens else ("", "", 1, 1)
            raise ValidateSyntaxError(f"expected {what}, found end of input", last[2], last[3])
        tok = tokens[pos]
        pos += 1
        return tok

    kw = take("ident", "'validate'")
    if kw[1] != "validate":
        raise ValidateSyntaxError(f"expected 'validate', found {kw[1]!r}", kw[2], kw[3])
    spec = ValidationSpec(name=take("ident", "a specification name")[1])

    seen_df = False
    while pos < len(tokens):
        head = take("ident", "'cfNext' or 'dfNext'")
        if head[1] not in ("cfNext", "dfNext"):
            raise ValidateSyntaxError(
                f"expected 'cfNext' or 'dfNext', found {head[1]!r}", head[2], head[3]
            )
        if head[1] == "cfNext" and seen_df:
            raise OrderError(
                "cfNext assertions must precede dfNext assertions", head[2], head[3]
            )
        take(":", "':'")
        left = take("string", "a quoted label")[1]
        take("-->", "'-->'")
        right = take("string", "a quoted label")[1]
        if head[1] == "cfNext":
            spec.cf_links.append(LinkAssertion(left, right))
        else:
            seen_df = True
            spec.df_links.append(LinkAssertion(left, right))
    return spec
