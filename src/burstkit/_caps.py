"""Enumeration caps.

Every exhaustive scan in the library is guarded by an explicit cap and
fails hard with CapExceeded; there is no silent truncation. DEFAULTS is
the one place the cap kinds and defaults are set; limit() lets a per-call
cap or BURSTKIT_CAP_<kind> (a non-negative integer, see parse) override:

    BURSTKIT_CAP_ENUM       words / pairs visited by an exhaustive scan
    BURSTKIT_CAP_SOLUTIONS  affine solution sets enumerated per window
    BURSTKIT_CAP_CODEWORDS  explicit codeword lists
"""

from __future__ import annotations

import os

DEFAULTS = {"ENUM": 1 << 26, "SOLUTIONS": 1 << 16, "CODEWORDS": 1 << 16}


class CapExceeded(RuntimeError):
    """An exhaustive enumeration would exceed its configured cap."""

    def __init__(self, what: str, needed: int, cap: int):
        try:
            shown = str(needed)
        except ValueError:  # past CPython's 4,300-digit limit: the largest power of two not above it
            shown = f"at least 2^{needed.bit_length() - 1}"
        super().__init__(f"{what} needs {shown} > cap {cap}")
        self.what = what
        self.needed = needed
        self.cap = cap


def parse(name: str, raw: str) -> int:
    """The cap that the flag or variable name gives as text."""
    if not raw.strip().isdecimal():
        raise ValueError(f"{name} must be a non-negative integer, got {raw!r}")
    return int(raw)


def limit(kind: str, cap: int | None = None) -> int:
    """The cap of this kind: the per-call cap, else BURSTKIT_CAP_<kind>, else the default."""
    if cap is not None:
        return cap
    name = f"BURSTKIT_CAP_{kind}"
    raw = os.environ.get(name)
    return DEFAULTS[kind] if raw is None else parse(name, raw)


def check(what: str, needed: int, kind: str, cap: int | None = None) -> None:
    """Refuse the scan when needed exceeds the cap of this kind."""
    if needed > (cap := limit(kind, cap)):
        raise CapExceeded(what, needed, cap)
