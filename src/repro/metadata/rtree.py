"""A Guttman R-tree (quadratic split) over n-dimensional boxes.

This is the index structure the MetaData Service uses to answer range
queries against chunk bounding boxes (Guttman [6] in the paper's reference
list).  The implementation follows the original paper:

* every node holds between ``min_entries`` and ``max_entries`` entries
  (except the root);
* insertion descends by least-enlargement (ties: smallest area);
* overflow is resolved with the *quadratic* split: pick the pair of entries
  wasting the most area as seeds, then assign remaining entries by
  preference, honouring the min-fill constraint;
* range search prunes subtrees whose MBR does not intersect the query box.

Boxes are ``(lo, hi)`` pairs of equal-length float sequences (closed
intervals, touching boxes intersect).  Payloads are opaque.  Internally a
box is a pair of float tuples and all geometry is plain float arithmetic:
with two or three coordinates per box, per-call numpy overhead would
dominate every area, enlargement and overlap test.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

__all__ = ["RTree"]

Boxish = Tuple[Sequence[float], Sequence[float]]
Vec = Tuple[float, ...]


class _Entry:
    """Leaf entry (payload) or internal entry (child node) with its MBR."""

    __slots__ = ("lo", "hi", "child", "payload")

    def __init__(
        self,
        lo: Vec,
        hi: Vec,
        child: Optional["_Node"] = None,
        payload: object = None,
    ):
        self.lo = lo
        self.hi = hi
        self.child = child
        self.payload = payload


class _Node:
    __slots__ = ("leaf", "entries")

    def __init__(self, leaf: bool):
        self.leaf = leaf
        self.entries: List[_Entry] = []

    def mbr(self) -> Tuple[Vec, Vec]:
        lo = tuple(map(min, zip(*(e.lo for e in self.entries))))
        hi = tuple(map(max, zip(*(e.hi for e in self.entries))))
        return lo, hi


def _area(lo: Vec, hi: Vec) -> float:
    area = 1.0
    for l, h in zip(lo, hi):
        area *= h - l
    return area


def _enlarged(lo1: Vec, hi1: Vec, lo2: Vec, hi2: Vec) -> Tuple[Vec, Vec]:
    return tuple(map(min, lo1, lo2)), tuple(map(max, hi1, hi2))


def _intersects(lo1: Vec, hi1: Vec, lo2: Vec, hi2: Vec) -> bool:
    for l1, h1, l2, h2 in zip(lo1, hi1, lo2, hi2):
        if l1 > h2 or l2 > h1:
            return False
    return True


class RTree:
    """Dynamic R-tree with quadratic node split.

    Parameters
    ----------
    ndim:
        Dimensionality of all indexed boxes.
    max_entries / min_entries:
        Node capacity bounds; ``min_entries`` defaults to
        ``max_entries // 2`` (and must be ``<= max_entries // 2``).
    """

    def __init__(self, ndim: int, max_entries: int = 8, min_entries: Optional[int] = None):
        if ndim <= 0:
            raise ValueError("ndim must be positive")
        if max_entries < 2:
            raise ValueError("max_entries must be >= 2")
        min_entries = min_entries if min_entries is not None else max(1, max_entries // 2)
        if not (1 <= min_entries <= max_entries // 2):
            raise ValueError("need 1 <= min_entries <= max_entries // 2")
        self.ndim = ndim
        self.max_entries = max_entries
        self.min_entries = min_entries
        self._root = _Node(leaf=True)
        self._size = 0
        self._height = 1

    # -- public API ------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        return self._height

    def insert(self, box: Boxish, payload: object) -> None:
        """Insert ``payload`` under bounding ``box = (lo, hi)``."""
        lo, hi = self._check_box(box)
        entry = _Entry(lo, hi, payload=payload)
        split = self._insert(self._root, entry, level=self._height - 1)
        if split is not None:
            # root split: grow the tree
            old_root = self._root
            self._root = _Node(leaf=False)
            lo1, hi1 = old_root.mbr()
            lo2, hi2 = split.mbr()
            self._root.entries = [
                _Entry(lo1, hi1, child=old_root),
                _Entry(lo2, hi2, child=split),
            ]
            self._height += 1
        self._size += 1

    def search(self, box: Boxish) -> List[object]:
        """All payloads whose boxes intersect the (closed) query box."""
        lo, hi = self._check_box(box)
        out: List[object] = []
        self._search(self._root, lo, hi, out)
        return out

    def __iter__(self) -> Iterator[object]:
        """Iterate all payloads (no particular order)."""
        stack = [self._root]
        while stack:
            node = stack.pop()
            for e in node.entries:
                if node.leaf:
                    yield e.payload
                else:
                    stack.append(e.child)

    # -- internals ----------------------------------------------------------------

    def _check_box(self, box: Boxish) -> Tuple[Vec, Vec]:
        try:
            lo = tuple(map(float, box[0]))
            hi = tuple(map(float, box[1]))
        except TypeError:
            raise ValueError(f"box must be two length-{self.ndim} vectors") from None
        if len(lo) != self.ndim or len(hi) != self.ndim:
            raise ValueError(f"box must be two length-{self.ndim} vectors")
        for l, h in zip(lo, hi):
            if l != l or h != h:
                raise ValueError("box bounds may not be NaN")
            if l > h:
                raise ValueError(f"empty box: lo={lo} > hi={hi}")
        return lo, hi

    def _choose_subtree(self, node: _Node, entry: _Entry) -> _Entry:
        best = None
        best_key = None
        for e in node.entries:
            lo, hi = _enlarged(e.lo, e.hi, entry.lo, entry.hi)
            enlargement = _area(lo, hi) - _area(e.lo, e.hi)
            key = (enlargement, _area(e.lo, e.hi))
            if best_key is None or key < best_key:
                best, best_key = e, key
        assert best is not None
        return best

    def _insert(self, node: _Node, entry: _Entry, level: int) -> Optional[_Node]:
        """Insert into subtree rooted at ``node`` (``level`` 0 = leaf).

        Returns the sibling node if ``node`` was split, else ``None``.
        """
        if level == 0:
            node.entries.append(entry)
        else:
            slot = self._choose_subtree(node, entry)
            split = self._insert(slot.child, entry, level - 1)
            slot.lo, slot.hi = _enlarged(slot.lo, slot.hi, entry.lo, entry.hi)
            if split is not None:
                # re-tighten the updated child's MBR and add the new sibling
                slot.lo, slot.hi = slot.child.mbr()
                lo, hi = split.mbr()
                node.entries.append(_Entry(lo, hi, child=split))
        if len(node.entries) > self.max_entries:
            return self._split(node)
        return None

    def _split(self, node: _Node) -> _Node:
        """Quadratic split; mutates ``node`` into group 1, returns group 2."""
        entries = node.entries
        # 1. pick seeds: the pair wasting the most area
        worst = -1.0
        seeds = (0, 1)
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                lo, hi = _enlarged(entries[i].lo, entries[i].hi, entries[j].lo, entries[j].hi)
                waste = _area(lo, hi) - _area(entries[i].lo, entries[i].hi) - _area(
                    entries[j].lo, entries[j].hi
                )
                if waste > worst:
                    worst = waste
                    seeds = (i, j)
        g1 = [entries[seeds[0]]]
        g2 = [entries[seeds[1]]]
        lo1, hi1 = g1[0].lo, g1[0].hi
        lo2, hi2 = g2[0].lo, g2[0].hi
        rest = [e for k, e in enumerate(entries) if k not in seeds]

        # 2. distribute the remaining entries
        while rest:
            # min-fill guarantee
            if len(g1) + len(rest) == self.min_entries:
                g1.extend(rest)
                for e in rest:
                    lo1, hi1 = _enlarged(lo1, hi1, e.lo, e.hi)
                rest = []
                break
            if len(g2) + len(rest) == self.min_entries:
                g2.extend(rest)
                for e in rest:
                    lo2, hi2 = _enlarged(lo2, hi2, e.lo, e.hi)
                rest = []
                break
            # pick the entry with maximal preference difference
            best_idx = 0
            best_diff = -1.0
            best_d = (0.0, 0.0)
            for idx, e in enumerate(rest):
                l1, h1 = _enlarged(lo1, hi1, e.lo, e.hi)
                l2, h2 = _enlarged(lo2, hi2, e.lo, e.hi)
                d1 = _area(l1, h1) - _area(lo1, hi1)
                d2 = _area(l2, h2) - _area(lo2, hi2)
                diff = abs(d1 - d2)
                if diff > best_diff:
                    best_diff = diff
                    best_idx = idx
                    best_d = (d1, d2)
            e = rest.pop(best_idx)
            d1, d2 = best_d
            # prefer smaller enlargement; ties by area then count
            if d1 < d2 or (d1 == d2 and (_area(lo1, hi1), len(g1)) <= (_area(lo2, hi2), len(g2))):
                g1.append(e)
                lo1, hi1 = _enlarged(lo1, hi1, e.lo, e.hi)
            else:
                g2.append(e)
                lo2, hi2 = _enlarged(lo2, hi2, e.lo, e.hi)

        node.entries = g1
        sibling = _Node(leaf=node.leaf)
        sibling.entries = g2
        return sibling

    def _search(self, node: _Node, lo: Vec, hi: Vec, out: List[object]) -> None:
        for e in node.entries:
            if _intersects(e.lo, e.hi, lo, hi):
                if node.leaf:
                    out.append(e.payload)
                else:
                    self._search(e.child, lo, hi, out)

    # -- diagnostics -------------------------------------------------------------

    def check_invariants(self) -> None:
        """Validate structural invariants (tests call this after mutations).

        * every node except the root has between min_entries and max_entries
          entries;
        * every internal entry's box equals (or contains) its child's MBR;
        * all leaves are at the same depth.
        """
        leaf_depths = set()

        def visit(node: _Node, depth: int, is_root: bool) -> None:
            if not is_root:
                assert self.min_entries <= len(node.entries) <= self.max_entries, (
                    f"node fill {len(node.entries)} outside "
                    f"[{self.min_entries}, {self.max_entries}]"
                )
            else:
                assert len(node.entries) <= self.max_entries
            if node.leaf:
                leaf_depths.add(depth)
                return
            for e in node.entries:
                clo, chi = e.child.mbr()
                # per coordinate: tuple <= alone would compare lexicographically
                assert all(a <= b for a, b in zip(e.lo, clo)) and all(
                    a >= b for a, b in zip(e.hi, chi)
                ), "internal entry MBR does not contain child MBR"
                visit(e.child, depth + 1, False)

        visit(self._root, 0, True)
        assert len(leaf_depths) <= 1, f"leaves at different depths: {leaf_depths}"
        assert not leaf_depths or leaf_depths == {self._height - 1}
