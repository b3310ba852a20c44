"""Exception hierarchy shared by all flowgraphs stages."""


class FlowgraphsError(Exception):
    """Base class for every error this package raises on bad input."""


class SourcePosError(FlowgraphsError):
    """An error tied to a (line, column) position in an input text."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


def line_col(text: str, offset: int) -> tuple[int, int]:
    """The (line, column) of `text[offset]`, counted from 1: a line ends at
    "\\n", and a column counts code points."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)
