"""Enumeration caps.

Every exhaustive scan in the library is guarded by an explicit cap and
fails hard with CapExceeded; there is no silent truncation. Defaults can
be overridden per call or through environment variables, whose values
parse() requires to be non-negative integers:

    BURSTKIT_CAP_ENUM       words / pairs visited by an exhaustive scan
    BURSTKIT_CAP_SOLUTIONS  affine solution sets enumerated per window
    BURSTKIT_CAP_CODEWORDS  explicit codeword lists
"""

from __future__ import annotations

import os

DEFAULT_ENUM = 1 << 26
DEFAULT_SOLUTIONS = 1 << 16
DEFAULT_CODEWORDS = 1 << 16


class CapExceeded(RuntimeError):
    """An exhaustive enumeration would exceed its configured cap."""

    def __init__(self, what: str, needed: int, cap: int):
        super().__init__(f"{what} needs {needed} > cap {cap}")
        self.what = what
        self.needed = needed
        self.cap = cap


def parse(name: str, raw: str) -> int:
    """The cap that the flag or variable name gives as text."""
    if not raw.strip().isdecimal():
        raise ValueError(f"{name} must be a non-negative integer, got {raw!r}")
    return int(raw)


def _env(name: str, default: int) -> int:
    raw = os.environ.get(name)
    return default if raw is None else parse(name, raw)


def enum_cap(override: int | None = None) -> int:
    return override if override is not None else _env("BURSTKIT_CAP_ENUM", DEFAULT_ENUM)


def solutions_cap(override: int | None = None) -> int:
    return override if override is not None else _env(
        "BURSTKIT_CAP_SOLUTIONS", DEFAULT_SOLUTIONS
    )


def codewords_cap(override: int | None = None) -> int:
    return override if override is not None else _env(
        "BURSTKIT_CAP_CODEWORDS", DEFAULT_CODEWORDS
    )


def check(what: str, needed: int, cap: int) -> None:
    if needed > cap:
        raise CapExceeded(what, needed, cap)
