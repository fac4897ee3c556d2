"""Tests for the page-level join index / sub-table connectivity graph.

The key property: the graph built from actual chunk bounding boxes must
reproduce the paper's closed-form statistics (n_e = N_C · E_C etc.) for
every aligned grid partitioning.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.datamodel import BoundingBox
from repro.datamodel.chunk import ChunkDescriptor, ChunkRef
from repro.datamodel.subtable import SubTableId
from repro.joins import PageJoinIndex, build_join_index
from repro.workloads import GridSpec, make_grid_chunk_descriptors
from repro.workloads.generator import dim_names
from repro.workloads.irregular import kd_tiles
from tests.joins.join_index_oracle import rtree_join_pairs


def chunks_for(spec: GridSpec, record_size=16, num_storage=2):
    left = make_grid_chunk_descriptors(1, spec.g, spec.p, record_size, num_storage)
    right = make_grid_chunk_descriptors(2, spec.g, spec.q, record_size, num_storage)
    return left, right


def index_for(spec: GridSpec) -> PageJoinIndex:
    left, right = chunks_for(spec)
    return build_join_index(left, right, on=dim_names(spec.ndim))


class TestAgainstPaperFormulas:
    @pytest.mark.parametrize(
        "g,p,q",
        [
            ((8,), (4,), (2,)),
            ((8,), (2,), (8,)),
            ((8, 8), (4, 4), (4, 4)),
            ((8, 8), (2, 8), (8, 2)),
            ((16, 16), (4, 8), (8, 4)),
            ((8, 8, 8), (4, 4, 4), (2, 2, 2)),
            ((8, 8, 8), (2, 4, 8), (8, 4, 2)),
            ((16, 8, 4), (4, 8, 4), (16, 2, 1)),
        ],
    )
    def test_edge_count_matches_formula(self, g, p, q):
        spec = GridSpec(g=g, p=p, q=q)
        idx = index_for(spec)
        assert idx.num_edges == spec.n_e

    @pytest.mark.parametrize(
        "g,p,q",
        [
            ((8, 8), (4, 4), (4, 4)),
            ((8, 8), (2, 8), (8, 2)),
            ((8, 8, 8), (2, 4, 8), (8, 4, 2)),
        ],
    )
    def test_component_structure_matches_formula(self, g, p, q):
        spec = GridSpec(g=g, p=p, q=q)
        comps = index_for(spec).components()
        assert len(comps) == spec.N_C
        for comp in comps:
            assert comp.a == spec.a
            assert comp.b == spec.b
            assert comp.num_edges == spec.E_C

    def test_figure3_shape_a2_b4(self):
        """Figure 3's example: components with a=2 left, b=4 right sub-tables."""
        spec = GridSpec(g=(4, 8), p=(1, 4), q=(2, 1))
        assert spec.a == 2 and spec.b == 4
        comps = index_for(spec).components()
        assert all(c.a == 2 and c.b == 4 for c in comps)

    def test_nested_partitions_have_degree_one(self):
        """Right strictly finer than left: every right sub-table has one edge."""
        spec = GridSpec(g=(8, 8), p=(4, 4), q=(2, 2))
        idx = index_for(spec)
        stats = idx.stats()
        assert stats.avg_right_degree == 1.0
        assert idx.num_edges == spec.m_S

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_aligned_partitions_match_formulas(self, data):
        dims = data.draw(st.integers(min_value=1, max_value=3))
        g, p, q = [], [], []
        for _ in range(dims):
            ge = data.draw(st.sampled_from([2, 4, 8, 16]))
            pe = data.draw(st.sampled_from([s for s in (1, 2, 4, 8, 16) if s <= ge]))
            qe = data.draw(st.sampled_from([s for s in (1, 2, 4, 8, 16) if s <= ge]))
            g.append(ge), p.append(pe), q.append(qe)
        spec = GridSpec(g=tuple(g), p=tuple(p), q=tuple(q))
        idx = index_for(spec)
        assert idx.num_edges == spec.n_e
        assert len(idx.components()) == spec.N_C
        stats = idx.stats()
        assert stats.num_left == spec.m_R
        assert stats.num_right == spec.m_S
        assert stats.avg_right_degree == pytest.approx(spec.n_e / spec.m_S)
        assert stats.edge_ratio(spec.c_R, spec.c_S, spec.T) == pytest.approx(spec.edge_ratio)


class TestIndexMechanics:
    def test_pairs_sorted_lexicographically(self):
        spec = GridSpec(g=(8, 8), p=(4, 4), q=(2, 2))
        idx = index_for(spec)
        assert idx.pairs == sorted(idx.pairs)

    def test_range_constraint_prunes(self):
        spec = GridSpec(g=(8, 8), p=(4, 4), q=(4, 4))
        left, right = chunks_for(spec)
        # constrain to the lower-left quadrant only
        idx = build_join_index(
            left, right, on=("x", "y"),
            range_constraint=BoundingBox({"x": (0, 3), "y": (0, 3)}),
        )
        assert idx.num_edges == 1

    def test_restrict_after_build(self):
        spec = GridSpec(g=(8, 8), p=(4, 4), q=(4, 4))
        left, right = chunks_for(spec)
        idx = build_join_index(left, right, on=("x", "y"))
        boxes = {c.id: c.bbox for c in left + right}
        sub = idx.restrict(BoundingBox({"x": (0, 3)}), boxes)
        assert sub.num_edges == 2  # x-constrained to left column of 2x2 tiles

    def test_empty_inputs(self):
        idx = build_join_index([], [], on=("x",))
        assert idx.num_edges == 0
        assert idx.components() == []
        assert idx.stats().num_components == 0

    def test_no_join_attrs_rejected(self):
        with pytest.raises(ValueError):
            build_join_index([], [], on=())

    def test_roundtrip_dict(self):
        spec = GridSpec(g=(8, 8), p=(4, 4), q=(2, 2))
        idx = index_for(spec)
        back = PageJoinIndex.from_dict(idx.to_dict())
        assert back.pairs == idx.pairs
        assert back.on == idx.on
        assert back.left_table == idx.left_table

    def test_join_on_subset_of_coordinates(self):
        """Joining on (x, y) only: chunks differing only in z connect."""
        spec = GridSpec(g=(4, 4, 4), p=(4, 4, 2), q=(4, 4, 2))
        left, right = chunks_for(spec)
        idx_xy = build_join_index(left, right, on=("x", "y"))
        idx_xyz = build_join_index(left, right, on=("x", "y", "z"))
        # on (x,y) every left chunk pairs with every right chunk (all share
        # the full xy extent): 2 x 2 = 4 edges; on xyz only aligned z-slabs
        assert idx_xy.num_edges == 4
        assert idx_xyz.num_edges == 2


# -- differential tests: the sweep against the R-tree builder ----------------------

INF = float("inf")


def descriptor(table_id, chunk_id, bbox):
    return ChunkDescriptor(
        id=SubTableId(table_id, chunk_id),
        ref=ChunkRef(storage_node=0, path=f"synthetic://t{table_id}", offset=0, size=16),
        attributes=("x", "y", "z"),
        extractors=("synthetic",),
        bbox=bbox,
        num_records=1,
    )


# small integer bounds, so faces touch and degenerate intervals are common;
# an omitted attribute or an infinite end makes an interval unbounded
bound = st.integers(min_value=0, max_value=8).map(float)


@st.composite
def interval(draw):
    lo, hi = sorted((draw(bound), draw(bound)))
    kind = draw(st.sampled_from(["finite"] * 4 + ["lo-inf", "hi-inf", "omitted"]))
    if kind == "lo-inf":
        lo = -INF
    elif kind == "hi-inf":
        hi = INF
    elif kind == "omitted":
        return None
    return lo, hi


@st.composite
def chunk_list(draw, table_id):
    n = draw(st.integers(min_value=0, max_value=20))
    chunk_ids = draw(st.permutations(range(n)))  # not in id order
    out = []
    for cid in chunk_ids:
        ivs = {name: draw(interval()) for name in ("x", "y", "z")}
        out.append(descriptor(table_id, cid, BoundingBox(
            {name: iv for name, iv in ivs.items() if iv is not None})))
    return out


class TestAgainstRTreeOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        left=chunk_list(1),
        right=chunk_list(2),
        on=st.sampled_from([("x",), ("y", "x"), ("x", "y", "z")]),
        constrained=st.booleans(),
        where=st.tuples(interval(), interval()),
    )
    def test_random_boxes_match_oracle(self, left, right, on, constrained, where):
        constraint = None
        if constrained:
            constraint = BoundingBox(
                {name: iv for name, iv in zip(("x", "z"), where) if iv is not None})
        idx = build_join_index(left, right, on=on, range_constraint=constraint)
        assert idx.pairs == rtree_join_pairs(left, right, on, constraint)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_kd_tilings_with_touching_faces_match_oracle(self, seed):
        """Independent KD tilings whose tiles share faces (closed [lo, hi])."""
        g = (32, 32, 16)

        def tiles(table_id, max_records, tile_seed):
            return [
                descriptor(table_id, k, BoundingBox(
                    {name: (float(lo), float(hi)) for name, (lo, hi) in zip("xyz", tile)}))
                for k, tile in enumerate(kd_tiles(g, max_records, seed=tile_seed))
            ]

        left, right = tiles(1, 300, 2 * seed), tiles(2, 500, 2 * seed + 1)
        for on in (("x", "y", "z"), ("z",)):
            idx = build_join_index(left, right, on=on)
            assert idx.pairs == rtree_join_pairs(left, right, on)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_regular_grids_match_oracle_and_component_count(self, data):
        dims = data.draw(st.integers(min_value=1, max_value=3))
        g, p, q = [], [], []
        for _ in range(dims):
            ge = data.draw(st.sampled_from([2, 4, 8, 16]))
            p.append(data.draw(st.sampled_from([s for s in (1, 2, 4, 8, 16) if s <= ge])))
            q.append(data.draw(st.sampled_from([s for s in (1, 2, 4, 8, 16) if s <= ge])))
            g.append(ge)
        spec = GridSpec(g=tuple(g), p=tuple(p), q=tuple(q))
        left, right = chunks_for(spec)
        on = dim_names(spec.ndim)
        idx = build_join_index(left, right, on=on)
        assert idx.pairs == rtree_join_pairs(left, right, on)
        assert len(idx.components()) == spec.N_C

    def test_huge_and_unbounded_coordinates(self):
        """Bounds past ±1e18 keep their exact order (the R-tree builder
        clamped them to ±1e18 and rejected such boxes as empty)."""
        left = [descriptor(1, 0, BoundingBox({"x": (2e18, 3e18)})),
                descriptor(1, 1, BoundingBox({"x": (-INF, -5e18)})),
                descriptor(1, 2, BoundingBox({}))]
        right = [descriptor(2, 0, BoundingBox({"x": (3e18, INF)})),
                 descriptor(2, 1, BoundingBox({"x": (1.5e18, 1.9e18)})),
                 descriptor(2, 2, BoundingBox({"x": (-INF, -(2.0**70))}))]
        idx = build_join_index(left, right, on=("x",))
        ids = [(l.chunk_id, r.chunk_id) for l, r in idx.pairs]
        assert ids == [(0, 0), (1, 2), (2, 0), (2, 1), (2, 2)]
