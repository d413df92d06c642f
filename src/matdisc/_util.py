"""Small internal helpers: thread resolution, deterministic chunking, JSON."""

from __future__ import annotations

import json

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
    """Deterministic JSON rendering (insertion-ordered keys, repr floats)."""
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"
