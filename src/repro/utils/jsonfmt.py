"""``json.dumps(obj, indent=2)`` bytes from CPython's C encoder.

``json.dumps`` only uses the C encoder when ``indent`` is ``None``; with
``indent=2`` every value goes through the pure-Python generator encoder,
which is several times slower on report-sized payloads.
:func:`dumps_indented` encodes compactly on the C encoder and re-indents
the text with numpy, producing the stdlib's indented output byte for byte
(for any ``sort_keys`` / ``ensure_ascii`` / ``allow_nan`` / ``default``).

The re-indent works on the UTF-8 bytes, where every structural character
(``[]{},:`` and ``"``) is ASCII and never part of a multi-byte sequence:

1. ``\\\\`` pairs, then ``\\"`` pairs, are blanked (``bytes.replace`` pairs
   escapes left to right, as a JSON reader does), so every remaining
   ``"`` opens or closes a string;
2. a structural byte lies inside a string when an odd number of quotes
   precede it;
3. the structural characters outside strings get the stdlib's layout:
   after ``[``/``{``/``,`` a newline and two spaces per depth level, a
   newline before a non-empty ``]``/``}``, ``": "`` after a key, and
   ``[]``/``{}`` left as they are.

Per-token arrays are int32 while the text is under 2^30 bytes (int64
above), offsets into the output are int64, and no per-byte Python object
is created.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

_OPEN, _CLOSE, _COMMA, _COLON, _QUOTE = 1, 2, 3, 4, 5

#: ``bytes.translate`` table: byte -> token kind (0 for every other byte)
_KINDS = bytes(
    {"[": _OPEN, "{": _OPEN, "]": _CLOSE, "}": _CLOSE, ",": _COMMA, ":": _COLON, '"': _QUOTE}
    .get(chr(byte), 0)
    for byte in range(256)
)

#: token kind -> change of nesting depth
_STEP = np.array([0, 1, -1, 0, 0, 0], dtype=np.int8)

_SPACE, _NEWLINE = ord(" "), ord("\n")


def dumps_indented(obj: Any, **kw: Any) -> str:
    """Exactly ``json.dumps(obj, indent=2, **kw)``, encoded by the C encoder."""
    compact = json.dumps(obj, separators=(",", ":"), **kw)
    raw = compact.encode("utf-8", "surrogatepass")
    n = len(raw)
    masked = raw
    if b"\\" in masked:
        masked = masked.replace(b"\\\\", b"__").replace(b'\\"', b"__")
    kinds = np.frombuffer(masked.translate(_KINDS), dtype=np.uint8)
    pos = np.flatnonzero(kinds)
    kind = kinds[pos]
    quote = kind == _QUOTE
    outside = ~quote & ~np.logical_xor.accumulate(quote)  # even number of quotes before
    pos, kind = pos[outside], kind[outside]

    idx = np.int32 if n < 2**30 else np.int64  # n, depth and 2*depth+1 fit
    pos = pos.astype(idx, copy=False)
    opens, closes = kind == _OPEN, kind == _CLOSE
    depth = np.cumsum(_STEP[kind], dtype=idx)  # level after each token
    # bytes inserted per token: " " after a colon, "\n" + 2*depth spaces otherwise
    width = 2 * depth + 1
    width[kind == _COLON] = 1
    # ... except that the stdlib writes empty containers as "[]" / "{}"
    pair = opens[:-1] & closes[1:] & (pos[1:] == pos[:-1] + 1)
    width[:-1][pair] = 0
    width[1:][pair] = 0
    live = width > 0
    at = (pos + 1 - closes)[live]  # a closer's break goes before it, the rest after
    if not len(at):
        return compact  # a scalar, "[]" or "{}"
    width, breaks = width[live], kind[live] != _COLON
    ends = np.cumsum(width, dtype=np.int64)  # output offsets can pass 2^31
    total = n + int(ends[-1])

    # runs of original bytes alternate with the inserted whitespace
    runs = np.empty(2 * len(at) + 1, dtype=np.int64)
    runs[0] = at[0]
    runs[2:-1:2] = at[1:] - at[:-1]
    runs[-1] = n - at[-1]
    runs[1::2] = width
    original = np.zeros(len(runs), dtype=bool)
    original[0::2] = True
    out = np.full(total, _SPACE, dtype=np.uint8)
    out[np.repeat(original, runs)] = np.frombuffer(raw, dtype=np.uint8)
    out[(at + (ends - width))[breaks]] = _NEWLINE
    return out.tobytes().decode("utf-8", "surrogatepass")
