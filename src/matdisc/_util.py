"""Small internal helpers: thread resolution, deterministic chunking, JSON."""

from __future__ import annotations

import json

# Fixed chunk size so parallel reductions are independent of worker count.
CHUNK = 65536


def resolve_threads(threads=None) -> int:
    t = 1 if threads is None else int(threads)
    if t < 1:
        raise ValueError(f"thread count must be >= 1, got {t}")
    return t


def map_chunks(fn, total: int, threads: int) -> list:
    """Apply ``fn(start, stop)`` over fixed chunks, results in chunk order.

    Worker count affects scheduling only; both the chunk boundaries and the
    order of the returned list are fixed, so downstream reductions are
    byte-deterministic.
    """
    ranges = [(s, min(s + CHUNK, total)) for s in range(0, total, CHUNK)]
    if threads <= 1 or len(ranges) <= 1:
        return [fn(s, e) for s, e in ranges]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda r: fn(*r), ranges))


def canonical_json(doc) -> str:
    """Deterministic JSON rendering (insertion-ordered keys, repr floats)."""
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"
