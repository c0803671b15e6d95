"""Latency summaries and input digests for the benchmark.

Kept free of any import from the package under test, so the smoke tests
can check the arithmetic on its own.
"""

from __future__ import annotations

import hashlib
import zlib

TAIL_BEYOND = 10   # samples that must lie above the reported tail value


def sub_seed(seed: int, *parts) -> int:
    """Stable 32-bit seed for one named stream of a workload.

    ``zlib.crc32`` of a fixed string, never ``hash()``: string hashing is
    salted per process, so it would draw different inputs in every run.
    """
    return zlib.crc32("/".join(str(p) for p in (seed, *parts)).encode())


def tail(values) -> tuple[float, float, int] | None:
    """The highest percentile with at least ``TAIL_BEYOND`` samples above it.

    Returns (value, percentile, samples beyond), or None when there are too
    few samples for any tail.  The value is the sample with exactly
    ``TAIL_BEYOND`` larger ones in sorted order, so its percentile is
    100 * (n - TAIL_BEYOND) / n.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        return None
    ordered = sorted(values)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


class Digest:
    """Running SHA-256 over a canonical text form of the generated inputs."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *items) -> None:
        self._h.update(repr(items).encode())
        self._h.update(b"\n")

    def hexdigest(self) -> str:
        return self._h.hexdigest()[:16]
