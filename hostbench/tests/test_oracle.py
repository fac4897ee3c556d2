import numpy as np

from oracle import box_arrays, overlap_pairs


def pairs(left, right, block=256):
    lo_l, hi_l = (np.array(v, dtype=float) for v in zip(*left))
    lo_r, hi_r = (np.array(v, dtype=float) for v in zip(*right))
    return [tuple(p) for p in overlap_pairs(lo_l, hi_l, lo_r, hi_r, block=block)]


def test_boxes_sharing_a_face_overlap():
    left = [((0, 0), (3, 3))]
    right = [((3, 0), (5, 3)), ((3, 3), (4, 4))]   # shared face, shared corner
    assert pairs(left, right) == [(0, 0), (0, 1)]


def test_disjoint_boxes_do_not_overlap():
    left = [((0, 0, 0), (3, 3, 3))]
    right = [((4, 0, 0), (7, 3, 3)),              # one-unit gap in x
             ((0, 0, 5), (3, 3, 6))]              # overlaps in x and y only
    assert pairs(left, right) == []


def test_identical_and_nested_boxes_overlap():
    left = [((0, 0), (3, 3)), ((4, 4), (7, 7))]
    right = [((0, 0), (3, 3)), ((5, 5), (6, 6)), ((8, 8), (9, 9))]
    assert pairs(left, right) == [(0, 0), (1, 1)]


def test_blocks_do_not_change_the_answer():
    rng = np.random.default_rng(3)
    lo = rng.integers(0, 20, size=(50, 3))
    boxes = [(tuple(a), tuple(a + rng.integers(0, 4, size=3))) for a in lo]
    assert pairs(boxes[:23], boxes[23:], block=4) == pairs(boxes[:23], boxes[23:])


def test_oracle_matches_the_join_index_on_a_small_tiling():
    from repro.joins import build_join_index
    from repro.workloads import GridSpec, build_oil_reservoir_dataset

    ds = build_oil_reservoir_dataset(GridSpec((8, 8, 8), (2, 4, 2), (4, 2, 8)), 2,
                                     functional=False)
    left = ds.metadata.table("T1").all_chunks()
    right = ds.metadata.table("T2").all_chunks()
    on = ("x", "y", "z")
    want = [(l.chunk_id, r.chunk_id) for l, r in build_join_index(left, right, on).pairs]
    got = overlap_pairs(*box_arrays(left, on), *box_arrays(right, on))
    assert [(left[i].id.chunk_id, right[j].id.chunk_id) for i, j in got] == want


def test_multiset_digest_ignores_row_order_only():
    from oracle import multiset_digest

    cols = {"x": np.array([1, 2, 2, 3], dtype=np.float32),
            "v": np.array([0.5, 0.25, 0.25, 1.0], dtype=np.float32)}
    names = ("x", "v")
    base = multiset_digest(cols, names)
    order = np.array([3, 1, 0, 2])
    assert multiset_digest({k: c[order] for k, c in cols.items()}, names) == base
    changed = {k: c.copy() for k, c in cols.items()}
    changed["v"][0] = 0.75
    assert multiset_digest(changed, names) != base
    # same rows and counts per column, different multiset of rows
    swapped = {"x": cols["x"], "v": cols["v"][[0, 1, 3, 2]]}
    assert multiset_digest(swapped, names) != base
    assert multiset_digest(cols, ("v", "x")) != base
    assert multiset_digest({k: c[:3] for k, c in cols.items()}, names) != base
