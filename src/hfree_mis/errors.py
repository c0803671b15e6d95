"""Exception types shared across the package."""

from __future__ import annotations


class PatternViolationError(Exception):
    """A forbidden induced pattern was found in a graph whose caller claimed
    it H-free.  Carries the embedding so the caller can inspect the lie."""

    def __init__(self, pattern_name: str, vertices: tuple[int, ...], message: str = ""):
        self.pattern_name = pattern_name
        self.vertices = tuple(sorted(vertices))
        self.message = message
        text = f"input is not {pattern_name}-free: induced copy on vertices {self.vertices}"
        if message:
            text += f" ({message})"
        super().__init__(text)

    def lifted(self, kept: list[int]) -> "PatternViolationError":
        """The same violation found in a relabelled copy, with the copy's
        vertex i named ``kept[i]`` as in the graph it was copied from."""
        return PatternViolationError(self.pattern_name,
                                     tuple(kept[v] for v in self.vertices), self.message)


class BudgetExceededError(Exception):
    """A search exceeded its node budget.  Never a wrong answer: the caller
    gets this instead of a result."""

    def __init__(self, nodes_used: int, budget: int):
        self.nodes_used = nodes_used
        self.budget = budget
        super().__init__(f"search budget exceeded ({nodes_used} nodes, limit {budget})")


class InternalCheckError(Exception):
    """A soundness check inside the package failed: a bug, never a property
    of the input.  Raised explicitly, so the check survives ``python -O``."""


class UnsupportedPatternError(Exception):
    """The requested pattern H is outside the supported solver families."""


class InputFormatError(Exception):
    """Malformed graph text; carries the 1-based offending line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")
