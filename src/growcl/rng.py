"""Deterministic random streams.

All randomness in a run flows from one 64-bit root seed through named
sub-streams ("data", "init", "gumbel", "growth", ...) so that components can
be re-seeded independently in tests.  The generator is PCG64 behind numpy's
``Generator`` API; identical seed and call sequence produce identical output
on every platform.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _name_key(name: str) -> tuple[int, ...]:
    # Stable 128-bit key for a stream name, independent of PYTHONHASHSEED.
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return tuple(int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4))


class SeededRng:
    """A named, reproducible PCG64 stream.  Its spawn key is the path's name
    keys end to end, so a substream extends its parent's key by one name."""

    def __init__(self, seed: int, path: tuple[str, ...] = ()):
        if not 0 <= int(seed) < 2**64:
            raise ValueError(f"seed must fit in 64 bits, got {seed}")
        path = tuple(path)
        self._start(int(seed), path, sum((_name_key(name) for name in path), ()))

    def _start(self, seed: int, path: tuple[str, ...], spawn_key: tuple[int, ...]) -> None:
        self.seed = seed
        self.path = path
        self._spawn_key = spawn_key
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(seed, spawn_key=spawn_key))
        )

    def substream(self, name: str) -> "SeededRng":
        """Fresh independent stream addressed by ``path + (name,)``."""
        child = SeededRng.__new__(SeededRng)
        child._start(self.seed, self.path + (name,), self._spawn_key + _name_key(name))
        return child

    def random(self, size=None) -> np.ndarray | float:
        return self._gen.random(size)

    def uniform(self, low: float, high: float, size=None) -> np.ndarray | float:
        return self._gen.uniform(low, high, size)

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None):
        return self._gen.normal(loc, scale, size)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def __repr__(self) -> str:
        return f"SeededRng(seed={self.seed}, path={'/'.join(self.path) or '<root>'})"
