"""Reference computations the benchmark checks the program's outputs against.

They work on plain numpy arrays built from the program's inputs and
outputs and share no code path with it, so a defect there cannot hide in
its own oracle.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence, Tuple

import numpy as np


def overlap_pairs(lo_l: np.ndarray, hi_l: np.ndarray, lo_r: np.ndarray,
                  hi_r: np.ndarray, block: int = 256) -> np.ndarray:
    """All ``(i, j)`` with left box ``i`` and right box ``j`` overlapping.

    Boxes are closed: ``lo`` and ``hi`` are ``(n, ndim)`` arrays of
    inclusive bounds, so boxes that share a face overlap.  Brute force over
    every pair, ``block`` left boxes at a time to bound memory.  Rows come
    out in lexicographic ``(i, j)`` order.
    """
    out = []
    for start in range(0, len(lo_l), block):
        lo = lo_l[start:start + block, None, :]
        hi = hi_l[start:start + block, None, :]
        hit = np.all((lo <= hi_r[None, :, :]) & (lo_r[None, :, :] <= hi), axis=2)
        i, j = np.nonzero(hit)
        out.append(np.stack([i + start, j], axis=1))
    if not out:
        return np.empty((0, 2), dtype=np.int64)
    return np.concatenate(out).astype(np.int64)


def box_arrays(chunks: Sequence, on: Sequence[str]) -> Tuple[np.ndarray, np.ndarray]:
    """``(lo, hi)`` arrays of the chunks' bounding boxes on ``on``."""
    lo = np.array([[c.bbox.interval(a).lo for a in on] for c in chunks], dtype=float)
    hi = np.array([[c.bbox.interval(a).hi for a in on] for c in chunks], dtype=float)
    return lo, hi


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64's finaliser, elementwise (uint64 arithmetic wraps)."""
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def multiset_digest(columns: dict, names: Sequence[str]) -> str:
    """Digest of the rows of ``columns`` that ignores their order.

    Each row's bytes, column by column, are mixed into one 64-bit hash and
    the hashes are summed modulo 2**64, so two tables get the same digest
    when they hold the same multiset of rows (and, barring a 64-bit
    collision, only then).  Linear in the rows, with no sort.
    """
    rows = np.zeros(len(columns[names[0]]), dtype=np.uint64)
    for name in names:
        col = np.ascontiguousarray(columns[name])
        words = col.view(f"u{col.itemsize}").astype(np.uint64)
        rows = _mix(rows ^ words)
    total = int(rows.sum(dtype=np.uint64))
    schema = ",".join(f"{n}:{columns[n].dtype.str}" for n in names)
    return f"{len(rows)}:{total:016x}:{schema}"


def digest(parts: Iterable[bytes]) -> str:
    """Hex SHA-256 over the given byte strings in order."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()
