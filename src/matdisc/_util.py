"""Small internal helpers: thread resolution, deterministic chunking, JSON."""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii

# Most assignments per chunk of the brute-force scan. The chunks are fixed
# by it and the input alone, so parallel reductions do not depend on the
# worker count.
CHUNK = 65536


def resolve_threads(threads=None) -> int:
    t = 1 if threads is None else int(threads)
    if t < 1:
        raise ValueError(f"thread count must be >= 1, got {t}")
    return t


def map_chunks(fn, ranges: list, threads: int) -> list:
    """Apply ``fn(start, stop)`` over the fixed ``ranges``, results in their
    order.

    Worker count affects scheduling only; the caller fixes the ranges and
    the returned list keeps their order, so downstream reductions are
    byte-deterministic.
    """
    if threads <= 1 or len(ranges) <= 1:
        return [fn(s, e) for s, e in ranges]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda r: fn(*r), ranges))


def canonical_json(doc) -> str:
    """The bytes of ``json.dumps(doc, indent=2, allow_nan=False)`` plus a
    newline, for documents of JSON builtin types with ``str`` keys.

    Strings, numbers and constants are rendered by json's own primitives,
    tried in json's ``isinstance`` order, so float and int subclasses such as
    ``np.float64`` print as their base type. NaN and infinity raise json's
    ``ValueError``; other types, and keys that are not ``str``, raise
    ``TypeError``.
    """
    out: list = []
    _render(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def _scalar(o):
    """JSON text of a string, number, bool or None; None for anything else."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if not math.isfinite(o):
            raise ValueError("Out of range float values are not JSON compliant: " + repr(o))
        return float.__repr__(o)
    return None


def _render(o, nl: str, out: list) -> None:
    """Append ``o``'s indented text to ``out``; ``nl`` is a newline and the
    indent of the line ``o`` starts on.

    Module level, not a closure: a recursive closure is a reference cycle
    that keeps every call's parts alive until the cyclic collector runs.
    """
    if isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = nl + "  "
        out.append("[" + inner)
        if set(map(type, o)) == {float}:
            text = ("," + inner).join(map(float.__repr__, o))
            if "n" not in text:  # no "nan" or "inf": every entry is finite
                out.append(text)
                out.append(nl + "]")
                return
        sep = ""
        for item in o:
            text = _scalar(item)
            if text is None:
                out.append(sep)
                _render(item, inner, out)
            else:
                out.append(sep + text)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, value in o.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {key.__class__.__name__}")
            head = sep + encode_basestring_ascii(key) + ": "
            text = _scalar(value)
            if text is None:
                out.append(head)
                _render(value, inner, out)
            else:
                out.append(head + text)
            sep = "," + inner
        out.append(nl + "}")
    else:
        text = _scalar(o)
        if text is None:
            raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")
        out.append(text)
