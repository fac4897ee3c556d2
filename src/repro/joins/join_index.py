"""Page-level join index: the sub-table connectivity graph.

"If a relational table is stored as pages ..., a list of page pairs (i, j)
such that page i and page j contain at least one record with the same value
of join attribute k.  When these two tables are required to be joined on
the attribute, only these page pairs are checked for matches." (Section 4.1)

Basic sub-tables play the role of pages; *candidate pairs* are sub-tables
whose bounding boxes overlap on the join attributes.  The index is built as
a vectorised rectangle-intersection join over ``(n, d)`` float64 arrays of
the boxes' exact closed intervals (unbounded ends stay ``±inf``):

* sort-and-sweep on one attribute — of a left and a right interval that
  overlap, one starts inside the other, so two ``searchsorted`` passes
  over the boxes sorted by lower bound list every 1-D overlap exactly
  once.  The sweep runs on the attribute with the fewest 1-D overlaps
  (counting them costs only the ``searchsorted`` passes), so the work
  tracks the output rather than ``n · m``;
* the candidates are expanded and filtered on the remaining attributes in
  blocks of at most ``_BLOCK`` pairs, so no ``n × m`` matrix is ever
  allocated;
* the survivors are ordered by ``(left id, right id)``.

Connected components are extracted with union-find — "independent
components of this graph are identified" (Section 5.1), the unit the
two-stage scheduler deals out to compute nodes.

:class:`ConnectivityStats` exposes the dataset parameters of Table 1 the
index determines: ``n_e``, the per-component ``(a, b)`` counts, and the
edge ratio ``n_e · c_R · c_S / T²``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.datamodel.bounding_box import BoundingBox
from repro.datamodel.chunk import ChunkDescriptor
from repro.datamodel.subtable import SubTableId

__all__ = ["PageJoinIndex", "Component", "ConnectivityStats", "build_join_index"]

#: candidate pairs expanded and filtered at a time
_BLOCK = 1 << 16


def _box_arrays(
    chunks: Sequence[ChunkDescriptor], on: Sequence[str]
) -> Tuple[np.ndarray, np.ndarray]:
    """``(n, d)`` lo/hi arrays of the chunks' exact intervals on ``on``."""
    ivs = [c.bbox.interval(name) for c in chunks for name in on]
    shape = (len(chunks), len(on))
    lo = np.array([iv.lo for iv in ivs], dtype=np.float64).reshape(shape)
    hi = np.array([iv.hi for iv in ivs], dtype=np.float64).reshape(shape)
    return lo, hi


def _sweep_runs(
    lo_a: np.ndarray, lo_b: np.ndarray, hi_b: np.ndarray, after: str
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each ``b`` interval, the ``a`` intervals whose lower bound lies in it.

    Returns ``(order, start, stop)``: ``a`` indices sorted by lower bound,
    and per ``b`` the slice ``order[start:stop]`` with ``lo_b <= lo_a <=
    hi_b`` (``after="right"``: ``lo_b < lo_a``).
    """
    order = np.argsort(lo_a, kind="stable")
    keys = lo_a[order]
    start = np.searchsorted(keys, lo_b, side=after)
    return order, start, np.searchsorted(keys, hi_b, side="right")


def _expand(
    order: np.ndarray, start: np.ndarray, stop: np.ndarray
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """``(probe, other)`` index pairs of the runs, ``_BLOCK`` pairs at a time
    (a single longer run is one block)."""
    counts = stop - start
    ends = np.cumsum(counts)
    p0 = 0
    while p0 < len(counts):
        base = ends[p0 - 1] if p0 else 0
        p1 = max(int(np.searchsorted(ends, base + _BLOCK, side="right")), p0 + 1)
        c = counts[p0:p1]
        total = int(c.sum())
        if total:
            within = np.arange(total) - np.repeat(np.cumsum(c) - c, c)
            yield (np.repeat(np.arange(p0, p1), c),
                   order[np.repeat(start[p0:p1], c) + within])
        p0 = p1


def _overlap_pairs(
    lo_l: np.ndarray, hi_l: np.ndarray, lo_r: np.ndarray, hi_r: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """All ``(i, j)`` whose closed boxes overlap on every attribute."""
    # overlap <=> the left starts inside the right, or the right starts
    # strictly inside the left: two disjoint cases, each a sweep
    sweeps = [
        (_sweep_runs(lo_l[:, dim], lo_r[:, dim], hi_r[:, dim], "left"),
         _sweep_runs(lo_r[:, dim], lo_l[:, dim], hi_l[:, dim], "right"))
        for dim in range(lo_l.shape[1])
    ]
    best = min(range(len(sweeps)),
               key=lambda d: sum(int((stop - start).sum()) for _, start, stop in sweeps[d]))
    lefts_in_rights, rights_in_lefts = sweeps[best]

    def blocks() -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        for probe, other in _expand(*lefts_in_rights):
            yield other, probe
        yield from _expand(*rights_in_lefts)

    out_l, out_r = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for li, ri in blocks():
        keep = np.ones(len(li), dtype=bool)
        for dim in range(lo_l.shape[1]):
            if dim != best:
                keep &= (lo_l[li, dim] <= hi_r[ri, dim]) & (lo_r[ri, dim] <= hi_l[li, dim])
        out_l.append(li[keep])
        out_r.append(ri[keep])
    return np.concatenate(out_l), np.concatenate(out_r)


def _id_key(chunk: ChunkDescriptor) -> Tuple[int, int]:
    """``SubTableId`` order as a plain tuple (compares in C, unlike the dataclass)."""
    return chunk.id.table_id, chunk.id.chunk_id


class _UnionFind:
    """Path-halving union-find over arbitrary hashable items."""

    def __init__(self) -> None:
        self._parent: Dict[object, object] = {}

    def add(self, x: object) -> None:
        self._parent.setdefault(x, x)

    def find(self, x: object) -> object:
        parent = self._parent
        while parent[x] is not x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: object, b: object) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra is not rb:
            self._parent[ra] = rb


@dataclass
class Component:
    """One connected component of the sub-table connectivity graph."""

    left_ids: List[SubTableId] = field(default_factory=list)
    right_ids: List[SubTableId] = field(default_factory=list)
    pairs: List[Tuple[SubTableId, SubTableId]] = field(default_factory=list)

    @property
    def a(self) -> int:
        """Left sub-tables in the component (Table 1's ``a``)."""
        return len(self.left_ids)

    @property
    def b(self) -> int:
        """Right sub-tables in the component (Table 1's ``b``)."""
        return len(self.right_ids)

    @property
    def num_edges(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class ConnectivityStats:
    """Dataset parameters derived from the connectivity graph."""

    num_edges: int            # n_e
    num_components: int       # N_C (for fully regular partitions)
    num_left: int             # sub-tables of R
    num_right: int            # m_S: sub-tables of S
    avg_left_degree: float
    avg_right_degree: float   # n_e / m_S — the IJ lookup multiplier
    max_component_a: int
    max_component_b: int

    def edge_ratio(self, c_r: float, c_s: float, total_tuples: float) -> float:
        """``n_e · c_R · c_S / T²`` (the parameter earlier works target)."""
        if total_tuples == 0:
            return 0.0
        return self.num_edges * c_r * c_s / (total_tuples**2)


class PageJoinIndex:
    """The precomputed join index for one (left table, right table, attrs)."""

    def __init__(
        self,
        left_table: int,
        right_table: int,
        on: Tuple[str, ...],
        pairs: List[Tuple[SubTableId, SubTableId]],
    ):
        self.left_table = left_table
        self.right_table = right_table
        self.on = tuple(on)
        self.pairs = pairs
        self._components: Optional[List[Component]] = None

    # -- graph structure -------------------------------------------------------

    @property
    def num_edges(self) -> int:
        return len(self.pairs)

    def components(self) -> List[Component]:
        """Connected components, deterministic order (by smallest left id)."""
        if self._components is None:
            uf = _UnionFind()
            for l, r in self.pairs:
                uf.add(("L", l))
                uf.add(("R", r))
                uf.union(("L", l), ("R", r))
            groups: Dict[object, Component] = {}
            seen_left: Dict[object, set] = {}
            seen_right: Dict[object, set] = {}
            for l, r in self.pairs:
                root = uf.find(("L", l))
                comp = groups.get(root)
                if comp is None:
                    comp = groups[root] = Component()
                    seen_left[root] = set()
                    seen_right[root] = set()
                if l not in seen_left[root]:
                    seen_left[root].add(l)
                    comp.left_ids.append(l)
                if r not in seen_right[root]:
                    seen_right[root].add(r)
                    comp.right_ids.append(r)
                comp.pairs.append((l, r))
            comps = list(groups.values())
            for comp in comps:
                comp.left_ids.sort()
                comp.right_ids.sort()
                comp.pairs.sort()
            comps.sort(key=lambda c: c.left_ids[0])
            self._components = comps
        return self._components

    def stats(self) -> ConnectivityStats:
        comps = self.components()
        lefts = {l for l, _ in self.pairs}
        rights = {r for _, r in self.pairs}
        n_e = self.num_edges
        return ConnectivityStats(
            num_edges=n_e,
            num_components=len(comps),
            num_left=len(lefts),
            num_right=len(rights),
            avg_left_degree=n_e / len(lefts) if lefts else 0.0,
            avg_right_degree=n_e / len(rights) if rights else 0.0,
            max_component_a=max((c.a for c in comps), default=0),
            max_component_b=max((c.b for c in comps), default=0),
        )

    def restrict(self, query: BoundingBox, chunk_boxes: Dict[SubTableId, BoundingBox]) -> "PageJoinIndex":
        """Prune pairs whose union box misses ``query``.

        "Any additional range constraints may be applied at the sub-table
        level to prune away unwanted edges (and nodes)."  A pair survives
        only if *both* endpoints' boxes intersect the constraint.
        """
        kept = [
            (l, r)
            for l, r in self.pairs
            if chunk_boxes[l].overlaps(query) and chunk_boxes[r].overlaps(query)
        ]
        return PageJoinIndex(self.left_table, self.right_table, self.on, kept)

    # -- persistence (MetaData Service key-value store) ------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "left_table": self.left_table,
            "right_table": self.right_table,
            "on": list(self.on),
            "pairs": [
                [l.table_id, l.chunk_id, r.table_id, r.chunk_id] for l, r in self.pairs
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "PageJoinIndex":
        pairs = [
            (SubTableId(int(p[0]), int(p[1])), SubTableId(int(p[2]), int(p[3])))
            for p in data["pairs"]  # type: ignore[union-attr]
        ]
        return cls(
            int(data["left_table"]),
            int(data["right_table"]),
            tuple(str(s) for s in data["on"]),  # type: ignore[union-attr]
            pairs,
        )


def build_join_index(
    left_chunks: Sequence[ChunkDescriptor],
    right_chunks: Sequence[ChunkDescriptor],
    on: Sequence[str],
    range_constraint: Optional[BoundingBox] = None,
) -> PageJoinIndex:
    """Construct the connectivity graph from chunk metadata.

    Candidate pairs are chunks whose bounding boxes overlap on every join
    attribute.  ``range_constraint`` (the view's WHERE range) prunes chunks
    before pairing.  The pair list is produced in lexicographic
    ``(left id, right id)`` order.
    """
    on = tuple(on)
    if not on:
        raise ValueError("join index needs at least one join attribute")
    if range_constraint is not None:
        left_chunks = [c for c in left_chunks if c.bbox.overlaps(range_constraint)]
        right_chunks = [c for c in right_chunks if c.bbox.overlaps(range_constraint)]

    left_table = left_chunks[0].table_id if left_chunks else -1
    right_table = right_chunks[0].table_id if right_chunks else -1

    pairs: List[Tuple[SubTableId, SubTableId]] = []
    if left_chunks and right_chunks:
        # in id order, position order is (left id, right id) order
        left_chunks = sorted(left_chunks, key=_id_key)
        right_chunks = sorted(right_chunks, key=_id_key)
        lo_l, hi_l = _box_arrays(left_chunks, on)
        lo_r, hi_r = _box_arrays(right_chunks, on)
        li, ri = _overlap_pairs(lo_l, hi_l, lo_r, hi_r)
        sel = np.lexsort((ri, li))
        lids = [c.id for c in left_chunks]
        rids = [c.id for c in right_chunks]
        pairs = [(lids[i], rids[j]) for i, j in zip(li[sel].tolist(), ri[sel].tolist())]
    return PageJoinIndex(left_table, right_table, on, pairs)
