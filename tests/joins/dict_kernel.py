"""The literal dict-based hash join: the kernel oracle for the tests.

Builds a Python dict on the left join keys and probes it with the right
ones, record by record.  The production kernel
(:func:`repro.joins.hash_join.vectorized_hash_join`) must return the same
rows in the same order; ``tests/joins/test_hash_join.py`` compares them.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.datamodel.subtable import SubTable, SubTableId
from repro.joins.hash_join import (
    JoinKernelStats,
    _assemble,
    _check_join,
    _nan_rows,
)


def _key_rows(sub: SubTable, on: Sequence[str]) -> Iterator[Tuple[tuple, bool]]:
    """Per record: its join key as a tuple of Python scalars, and whether it holds NaN."""
    return zip(zip(*(sub.column(name).tolist() for name in on)), _nan_rows(sub, on).tolist())


def dict_hash_join(
    left: SubTable,
    right: SubTable,
    on: Sequence[str],
    result_id: Optional[SubTableId] = None,
    suffix: str = "_r",
) -> Tuple[SubTable, JoinKernelStats]:
    """Literal hash join: build a dict on the left, probe with the right.

    Keys are tuples of Python scalars, so dict lookup is value equality
    (``-0.0 == 0.0``); NaN-keyed rows are counted but never inserted or
    matched.
    """
    _check_join(left, right, on)
    stats = JoinKernelStats()

    table: dict[tuple, list[int]] = {}
    for i, (key, nan) in enumerate(_key_rows(left, on)):
        stats.builds += 1
        if not nan:
            table.setdefault(key, []).append(i)

    left_idx: list[int] = []
    right_idx: list[int] = []
    for j, (key, nan) in enumerate(_key_rows(right, on)):
        stats.probes += 1
        hits = None if nan else table.get(key)
        if hits:
            left_idx.extend(hits)
            right_idx.extend([j] * len(hits))
    stats.matches = len(left_idx)
    result = _assemble(
        left,
        right,
        on,
        np.asarray(left_idx, dtype=np.intp),
        np.asarray(right_idx, dtype=np.intp),
        result_id,
        suffix,
    )
    return result, stats
