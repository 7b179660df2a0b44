"""Error taxonomy shared by every module.

Each failure carries a machine-readable category so the command line can map
it to a stable exit code. Categories:

    invalid-dimension   array length/shape violates a structural precondition
    invalid-parameter   scalar argument outside its legal range
    invalid-state       statevector fails its own invariants (norm, finiteness)
    invalid-data        numeric payload unusable (NaN/Inf, broken invariant),
                        or a data file that cannot be read
    degenerate-input    input is all-zero or otherwise carries no information
    empty-region        selected region holds no probability weight
    insufficient-data   too few points for the requested statistic
    resource            request exceeds the configured memory/size budget
    parse               malformed external file; carries a byte offset
"""

from __future__ import annotations

CATEGORIES = frozenset({
    "invalid-dimension",
    "invalid-parameter",
    "invalid-state",
    "invalid-data",
    "degenerate-input",
    "empty-region",
    "insufficient-data",
    "resource",
    "parse",
})


class QPhaseError(Exception):
    """Package error with a machine-readable category."""

    def __init__(self, category: str, message: str):
        if category not in CATEGORIES:
            raise ValueError(f"unknown error category: {category}")
        super().__init__(message)
        self.category = category


class ParseError(QPhaseError):
    """File-format error; byte_offset locates the first offending byte."""

    def __init__(self, message: str, byte_offset: int):
        super().__init__("parse", f"{message} (byte offset {byte_offset})")
        self.byte_offset = byte_offset
