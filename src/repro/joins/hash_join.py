"""In-memory hash join kernel.

Both QES algorithms bottom out here: "The in-memory hash join algorithm
requires a hash-table be built using the left (inner) relation with the
attribute of interest and that the resulting hash table be probed with the
records of the right (outer) relation" (Section 5).

The kernel, :func:`vectorized_hash_join`, is pure NumPy on the hot path,
per the HPC guides.  Join keys are densified one column at a time: a 1-D
``np.unique(return_inverse=True)`` over left+right maps each column to
dense ids, and the columns are folded into one int64 mixed-radix id
(``ids * k + inv``).  Before a multiply that could pass 2**62 the running
id is re-densified, so the fold never overflows whatever the key domain.
The left side is then grouped by a stable argsort and probes become two
``searchsorted`` sweeps.  The test suite checks it against a literal
dict-based hash join and the sort-merge oracle.

Key equality is value equality: ``-0.0`` equals ``0.0``, and a record with
NaN in any join column matches nothing (NaN != NaN).  The sort-merge
oracle in :mod:`~repro.joins.baselines` follows it too.

The kernel reports :class:`JoinKernelStats` whose ``builds``/``probes`` counts are
exactly what the cost models charge ``α_build``/``α_lookup`` for: one build
per left record, one probe per right record (the paper's join-selectivity-1
assumption makes one lookup per right record sufficient; the kernel itself
handles arbitrary multiplicity).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.datamodel.schema import Schema
from repro.datamodel.subtable import SubTable, SubTableId

__all__ = ["JoinKernelStats", "vectorized_hash_join", "hash_join"]

#: bound on the folded key id, so ``ids * k + inv`` stays inside int64
_ID_LIMIT = 1 << 62


@dataclass
class JoinKernelStats:
    """Operation counts from one kernel invocation."""

    builds: int = 0
    probes: int = 0
    matches: int = 0

    def __iadd__(self, other: "JoinKernelStats") -> "JoinKernelStats":
        self.builds += other.builds
        self.probes += other.probes
        self.matches += other.matches
        return self


def _result_schema(left: SubTable, right: SubTable, on: Sequence[str], suffix: str) -> Schema:
    return left.schema.join(right.schema, on=on, suffix=suffix)


def _assemble(
    left: SubTable,
    right: SubTable,
    on: Sequence[str],
    left_idx: np.ndarray,
    right_idx: np.ndarray,
    result_id: Optional[SubTableId],
    suffix: str,
) -> SubTable:
    """Materialise the join result from matched row-index pairs."""
    schema = _result_schema(left, right, on, suffix)
    columns = {}
    names_iter = iter(schema.names)
    for attr in left.schema:
        columns[next(names_iter)] = left.column(attr.name)[left_idx]
    on_set = set(on)
    for attr in right.schema:
        if attr.name in on_set:
            continue
        columns[next(names_iter)] = right.column(attr.name)[right_idx]
    rid = result_id if result_id is not None else SubTableId(-1, 0)
    return SubTable(rid, schema, columns)


def _check_join(left: SubTable, right: SubTable, on: Sequence[str]) -> None:
    if not on:
        raise ValueError("join needs at least one attribute")
    for name in on:
        if name not in left.schema or name not in right.schema:
            raise ValueError(f"join attribute {name!r} missing from one side")
        if left.schema[name].np_dtype != right.schema[name].np_dtype:
            raise ValueError(
                f"join attribute {name!r} has mismatched dtypes: "
                f"{left.schema[name].dtype} vs {right.schema[name].dtype}"
            )


def _nan_rows(sub: SubTable, on: Sequence[str]) -> np.ndarray:
    """Rows with NaN in any join column; under value equality they match nothing."""
    mask = np.zeros(sub.num_records, dtype=bool)
    for name in on:
        col = sub.column(name)
        if col.dtype.kind in "fc":
            mask |= np.isnan(col)
    return mask


def _dense_keys(
    left: SubTable, right: SubTable, on: Sequence[str]
) -> Tuple[np.ndarray, np.ndarray]:
    """Equality-preserving int64 key ids for both sides.

    Each column is densified with a 1-D ``np.unique`` over left+right and
    folded into a mixed-radix id; ``radix`` bounds the running id, and the
    id is re-densified (to at most ``n`` values) before a multiply that
    could pass ``_ID_LIMIT``.  NaN-keyed rows get ``-1`` on the left and
    ``-2`` on the right, so they never meet a real key or each other.
    """
    nl = left.num_records
    ids = np.zeros(nl + right.num_records, dtype=np.int64)
    radix = 1
    for name in on:
        uniq, inv = np.unique(
            np.concatenate([left.column(name), right.column(name)]), return_inverse=True
        )
        k = len(uniq)
        if radix * k > _ID_LIMIT:
            dense, ids = np.unique(ids, return_inverse=True)
            ids, radix = ids.reshape(-1), len(dense)
        ids = ids * k + inv.reshape(-1)
        radix *= k
    lkeys, rkeys = ids[:nl], ids[nl:]
    lnan, rnan = _nan_rows(left, on), _nan_rows(right, on)
    if lnan.any():
        lkeys = np.where(lnan, -1, lkeys)
    if rnan.any():
        rkeys = np.where(rnan, -2, rkeys)
    return lkeys, rkeys


def vectorized_hash_join(
    left: SubTable,
    right: SubTable,
    on: Sequence[str],
    result_id: Optional[SubTableId] = None,
    suffix: str = "_r",
) -> Tuple[SubTable, JoinKernelStats]:
    """Vectorised equi-join with hash-join-equivalent output.

    Left row order within a key group is preserved and right rows are
    processed in order — the row order of a literal dict-based hash join,
    not merely the same multiset.
    """
    _check_join(left, right, on)
    stats = JoinKernelStats(builds=left.num_records, probes=right.num_records)

    if left.num_records == 0 or right.num_records == 0:
        empty = np.empty(0, dtype=np.intp)
        return _assemble(left, right, on, empty, empty, result_id, suffix), stats
    lkeys, rkeys = _dense_keys(left, right, on)

    # group left rows by key id with a stable sort
    order = np.argsort(lkeys, kind="stable")
    sorted_keys = lkeys[order]
    # for each right key: the [start, stop) slice of matching left rows
    starts = np.searchsorted(sorted_keys, rkeys, side="left")
    stops = np.searchsorted(sorted_keys, rkeys, side="right")
    counts = stops - starts

    total = int(counts.sum())
    stats.matches = total
    if total == 0:
        empty = np.empty(0, dtype=np.intp)
        return _assemble(left, right, on, empty, empty, result_id, suffix), stats

    # expand: for right row j with counts[j] matches, take left rows
    # order[starts[j] .. stops[j])
    right_idx = np.repeat(np.arange(right.num_records, dtype=np.intp), counts)
    # offsets within each right row's match range
    cum = np.concatenate(([0], np.cumsum(counts)))
    within = np.arange(total, dtype=np.intp) - np.repeat(cum[:-1], counts)
    left_idx = order[np.repeat(starts, counts) + within]

    return _assemble(left, right, on, left_idx, right_idx, result_id, suffix), stats


def hash_join(
    left: SubTable,
    right: SubTable,
    on: Sequence[str],
    result_id: Optional[SubTableId] = None,
    suffix: str = "_r",
) -> Tuple[SubTable, JoinKernelStats]:
    """Front door both QES call: the production (vectorised) kernel."""
    return vectorized_hash_join(left, right, on, result_id, suffix)
