"""The R-tree join-index builder, kept as the differential oracle.

Before the join index became a vectorised sweep it was built by inserting
every left chunk box into a dynamic R-tree and probing once per right chunk
box, then re-checking each hit on the exact boxes.  That builder shares no
code with the sweep except the chunk descriptors, so the tests compare the
two pair lists.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from repro.datamodel.bounding_box import BoundingBox
from repro.datamodel.chunk import ChunkDescriptor
from repro.datamodel.subtable import SubTableId
from repro.metadata.rtree import RTree

_CLAMP = 1e18


def _box_vec(bbox: BoundingBox, on: Sequence[str]) -> Tuple[List[float], List[float]]:
    lo, hi = [], []
    for name in on:
        iv = bbox.interval(name)
        lo.append(max(iv.lo, -_CLAMP) if not math.isinf(iv.lo) else -_CLAMP)
        hi.append(min(iv.hi, _CLAMP) if not math.isinf(iv.hi) else _CLAMP)
    return lo, hi


def rtree_join_pairs(
    left_chunks: Sequence[ChunkDescriptor],
    right_chunks: Sequence[ChunkDescriptor],
    on: Sequence[str],
    range_constraint: Optional[BoundingBox] = None,
) -> List[Tuple[SubTableId, SubTableId]]:
    """The pair list ``build_join_index`` must produce, R-tree style."""
    on = tuple(on)
    if range_constraint is not None:
        left_chunks = [c for c in left_chunks if c.bbox.overlaps(range_constraint)]
        right_chunks = [c for c in right_chunks if c.bbox.overlaps(range_constraint)]
    pairs: List[Tuple[SubTableId, SubTableId]] = []
    if left_chunks and right_chunks:
        tree = RTree(ndim=len(on), max_entries=16)
        for c in left_chunks:
            tree.insert(_box_vec(c.bbox, on), c)
        for rc in right_chunks:
            for lc in tree.search(_box_vec(rc.bbox, on)):
                # R-tree overlap is on clamped coordinates; re-check exactly
                if lc.bbox.overlaps(rc.bbox, on=on):
                    pairs.append((lc.id, rc.id))
    pairs.sort()
    return pairs
