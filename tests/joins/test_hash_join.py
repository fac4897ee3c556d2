"""Tests for the in-memory hash join kernels."""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datamodel import Attribute, Schema, SubTable, SubTableId
from repro.joins import hash_join, vectorized_hash_join
from repro.joins.baselines import sort_merge_join
from tests.joins.dict_kernel import dict_hash_join

# the package re-exports ``hash_join`` the function under the module's name
kernel_module = importlib.import_module("repro.joins.hash_join")


def make_table(table_id, xs, ys, vals, value_name="v"):
    schema = Schema.of("x", "y", value_name, coordinates=("x", "y"))
    return SubTable(
        SubTableId(table_id, 0),
        schema,
        {
            "x": np.asarray(xs, dtype=np.float32),
            "y": np.asarray(ys, dtype=np.float32),
            value_name: np.asarray(vals, dtype=np.float32),
        },
    )


KERNELS = [dict_hash_join, vectorized_hash_join]


@pytest.mark.parametrize("kernel", KERNELS, ids=["dict", "vectorized"])
class TestKernels:
    def test_selectivity_one_join(self, kernel):
        """The paper's assumption: each left record has exactly one partner."""
        left = make_table(1, [0, 1, 2], [0, 0, 0], [10, 11, 12], "oilp")
        right = make_table(2, [2, 0, 1], [0, 0, 0], [22, 20, 21], "wp")
        out, stats = kernel(left, right, on=("x", "y"))
        assert stats.builds == 3 and stats.probes == 3 and stats.matches == 3
        assert out.schema.names == ("x", "y", "oilp", "wp")
        srt = out.sort_by(["x"])
        np.testing.assert_array_equal(srt.column("oilp"), [10, 11, 12])
        np.testing.assert_array_equal(srt.column("wp"), [20, 21, 22])

    def test_no_matches(self, kernel):
        left = make_table(1, [0], [0], [1], "a")
        right = make_table(2, [5], [5], [2], "b")
        out, stats = kernel(left, right, on=("x", "y"))
        assert out.num_records == 0
        assert stats.matches == 0

    def test_multiplicity(self, kernel):
        """Duplicate keys on both sides produce the cross product per key."""
        left = make_table(1, [1, 1, 2], [0, 0, 0], [10, 11, 12], "a")
        right = make_table(2, [1, 1], [0, 0], [20, 21], "b")
        out, stats = kernel(left, right, on=("x", "y"))
        assert out.num_records == 4  # 2 left x 2 right for key (1, 0)
        assert stats.matches == 4

    def test_empty_left(self, kernel):
        left = make_table(1, [], [], [], "a")
        right = make_table(2, [1], [0], [2], "b")
        out, stats = kernel(left, right, on=("x",))
        assert out.num_records == 0
        assert stats.builds == 0 and stats.probes == 1

    def test_empty_right(self, kernel):
        left = make_table(1, [1], [0], [2], "a")
        right = make_table(2, [], [], [], "b")
        out, stats = kernel(left, right, on=("x",))
        assert out.num_records == 0

    def test_single_attribute_join(self, kernel):
        left = make_table(1, [0, 1], [9, 9], [1, 2], "a")
        right = make_table(2, [1, 0], [7, 7], [3, 4], "b")
        out, _ = kernel(left, right, on=("x",))
        # join only on x: y from both sides kept (right's suffixed)
        assert out.schema.names == ("x", "y", "a", "y_r", "b")
        assert out.num_records == 2

    def test_name_clash_suffix(self, kernel):
        left = make_table(1, [1], [0], [5], "v")
        right = make_table(2, [1], [0], [6], "v")
        out, _ = kernel(left, right, on=("x", "y"))
        assert out.schema.names == ("x", "y", "v", "v_r")
        assert out.column("v")[0] == 5
        assert out.column("v_r")[0] == 6

    def test_errors(self, kernel):
        left = make_table(1, [1], [0], [5], "a")
        right = make_table(2, [1], [0], [6], "b")
        with pytest.raises(ValueError):
            kernel(left, right, on=())
        with pytest.raises(ValueError):
            kernel(left, right, on=("nope",))

    def test_dtype_mismatch_rejected(self, kernel):
        left = make_table(1, [1], [0], [5], "a")
        schema = Schema(
            [
                __import__("repro.datamodel", fromlist=["Attribute"]).Attribute("x", "float64"),
                __import__("repro.datamodel", fromlist=["Attribute"]).Attribute("b", "float32"),
            ]
        )
        right = SubTable(
            SubTableId(2, 0),
            schema,
            {"x": np.ones(1, np.float64), "b": np.ones(1, np.float32)},
        )
        with pytest.raises(ValueError):
            kernel(left, right, on=("x",))

    def test_result_id(self, kernel):
        left = make_table(1, [1], [0], [5], "a")
        right = make_table(2, [1], [0], [6], "b")
        out, _ = kernel(left, right, on=("x", "y"), result_id=SubTableId(99, 7))
        assert out.id == SubTableId(99, 7)


def test_hash_join_front_door_runs_the_production_kernel():
    left = make_table(1, [1, 2, 2], [0, 0, 1], [5, 6, 7], "a")
    right = make_table(2, [2, 1], [0, 0], [8, 9], "b")
    out_h, st_h = hash_join(left, right, on=("x",))
    out_v, st_v = vectorized_hash_join(left, right, on=("x",))
    assert st_h == st_v
    assert out_h.to_structured_array().tobytes() == \
        out_v.to_structured_array().tobytes()


# -- differential tests: dict vs vectorized vs sort-merge ------------------------------

coords = st.integers(min_value=0, max_value=6)
# value equality: -0.0 must meet 0, and a NaN key must meet nothing
float_coords = st.sampled_from([0, 1, 2, 3, 4, 5, 6, -0.0, float("nan")])


@st.composite
def random_table(draw, table_id, value_name, coords=coords):
    n = draw(st.integers(min_value=0, max_value=40))
    xs = [draw(coords) for _ in range(n)]
    ys = [draw(coords) for _ in range(n)]
    vals = list(range(n))
    return make_table(table_id, xs, ys, vals, value_name)


@settings(max_examples=120, deadline=None)
@given(left=random_table(1, "a", float_coords), right=random_table(2, "b", float_coords))
def test_kernels_agree_exactly(left, right):
    """dict and vectorized kernels return identical rows in identical order."""
    out_d, st_d = dict_hash_join(left, right, on=("x", "y"))
    out_v, st_v = vectorized_hash_join(left, right, on=("x", "y"))
    assert st_d.matches == st_v.matches
    assert st_d.builds == st_v.builds and st_d.probes == st_v.probes
    assert out_d.num_records == out_v.num_records
    for name in out_d.schema.names:
        np.testing.assert_array_equal(out_d.column(name), out_v.column(name))


@settings(max_examples=120, deadline=None)
@given(left=random_table(1, "a", float_coords), right=random_table(2, "b", float_coords))
def test_hash_join_agrees_with_sort_merge(left, right):
    """Hash kernels agree (as multisets) with the independent sort-merge."""
    out_h, _ = vectorized_hash_join(left, right, on=("x", "y"))
    out_m = sort_merge_join(left, right, on=("x", "y"))
    assert out_h.equals_unordered(out_m)


@settings(max_examples=60, deadline=None)
@given(left=random_table(1, "a"), right=random_table(2, "b"))
def test_match_count_equals_key_multiplicity_product(left, right):
    """|result| == sum over keys of count_left(k) * count_right(k)."""
    from collections import Counter

    lc = Counter(zip(left.column("x").tolist(), left.column("y").tolist()))
    rc = Counter(zip(right.column("x").tolist(), right.column("y").tolist()))
    expected = sum(c * rc.get(k, 0) for k, c in lc.items())
    out, stats = vectorized_hash_join(left, right, on=("x", "y"))
    assert out.num_records == expected == stats.matches


def test_signed_zero_matches_and_nan_never_does():
    nan = float("nan")
    left = make_table(1, [0.0, -0.0, nan, 1.0], [0, 0, 0, nan], [10, 11, 12, 13], "a")
    right = make_table(2, [-0.0, nan, 1.0], [0, 0, nan], [20, 21, 22], "b")
    for kernel in KERNELS:
        out, stats = kernel(left, right, on=("x", "y"))
        assert stats.matches == 2
        np.testing.assert_array_equal(out.column("a"), [10, 11])
        np.testing.assert_array_equal(out.column("b"), [20, 20])
    assert sort_merge_join(left, right, on=("x", "y")).num_records == 2


# -- differential tests over wide key domains ------------------------------------------


def keyed_table(table_id, dtype, columns, value_name):
    """Key columns k0.. of ``dtype`` plus an int64 row-number column."""
    n = len(columns[0]) if columns else 0
    schema = Schema(
        [Attribute(f"k{c}", dtype) for c in range(len(columns))] + [Attribute(value_name, "int64")]
    )
    data = {f"k{c}": np.asarray(col, dtype=dtype) for c, col in enumerate(columns)}
    data[value_name] = np.arange(n, dtype=np.int64)
    return SubTable(SubTableId(table_id, 0), schema, data)


def nested_loop_pairs(left, right, on):
    """(left row, right row) pairs whose keys are equal as Python values."""
    lkeys = list(zip(*(left.column(n).tolist() for n in on)))
    rkeys = list(zip(*(right.column(n).tolist() for n in on)))
    return sorted(
        (i, j)
        for i, lk in enumerate(lkeys)
        for j, rk in enumerate(rkeys)
        if all(a == b for a, b in zip(lk, rk))
    )


def result_pairs(out):
    return sorted(zip(out.column("v").tolist(), out.column("w").tolist()))


@st.composite
def keyed_tables(draw, dtype, values):
    """Two tables on 1-3 key columns; each column draws from a small pool of
    ``values`` so keys repeat (selectivity other than 1) and sides may be empty."""
    ncols = draw(st.integers(min_value=1, max_value=3))
    pools = [draw(st.lists(values, min_size=1, max_size=5)) for _ in range(ncols)]

    def table(table_id, value_name):
        n = draw(st.integers(min_value=0, max_value=25))
        cols = [[draw(st.sampled_from(pool)) for _ in range(n)] for pool in pools]
        return keyed_table(table_id, dtype, cols, value_name)

    return table(1, "v"), table(2, "w"), tuple(f"k{c}" for c in range(ncols))


def check_against_oracles(left, right, on):
    expected = nested_loop_pairs(left, right, on)
    out_v, stats = vectorized_hash_join(left, right, on=on)
    out_d, _ = dict_hash_join(left, right, on=on)
    assert result_pairs(out_v) == expected
    assert stats.matches == len(expected)
    for name in out_v.schema.names:
        np.testing.assert_array_equal(out_v.column(name), out_d.column(name))
    assert result_pairs(sort_merge_join(left, right, on=on)) == expected


@settings(max_examples=100, deadline=None)
@given(tables=keyed_tables("int64", st.integers(min_value=-(2**63), max_value=2**63 - 1)))
def test_full_domain_int64_keys_match_oracles(tables):
    check_against_oracles(*tables)


@settings(max_examples=100, deadline=None)
@given(tables=keyed_tables("float32", st.floats(width=32)))
def test_float32_keys_match_oracles(tables):
    """Any float32, including ±0, ±inf, NaN and subnormals."""
    check_against_oracles(*tables)


@settings(max_examples=50, deadline=None)
@given(tables=keyed_tables("int64", st.integers(min_value=-(2**63), max_value=2**63 - 1)))
def test_redensify_path_matches_oracles(tables):
    """With a tiny id bound every column fold re-densifies first."""
    limit = kernel_module._ID_LIMIT
    kernel_module._ID_LIMIT = 2
    try:
        check_against_oracles(*tables)
    finally:
        kernel_module._ID_LIMIT = limit


def test_wide_keys_overflow_a_packed_id_but_not_the_kernel():
    """Eight full-domain columns of ~400 distinct values each: the product of
    the per-column cardinalities passes 2**62, so the fold must re-densify."""
    rng = np.random.default_rng(7)
    info = np.iinfo(np.int64)
    lcols = rng.integers(info.min, info.max, size=(8, 400), dtype=np.int64, endpoint=True)
    pick = rng.integers(0, 400, size=300)
    rcols = np.concatenate(
        [lcols[:, pick], rng.integers(info.min, info.max, size=(8, 100), dtype=np.int64)], axis=1
    )
    left = keyed_table(1, "int64", list(lcols), "v")
    right = keyed_table(2, "int64", list(rcols), "w")
    on = tuple(f"k{c}" for c in range(8))
    lids, rids = kernel_module._dense_keys(left, right, on)
    ids = np.concatenate([lids, rids])
    assert ids.min() >= 0 and ids.max() < 2**62  # a wrapped fold would go negative
    out, stats = vectorized_hash_join(left, right, on=on)
    assert stats.matches == 300
    assert result_pairs(out) == sorted(zip(pick.tolist(), range(300)))
    assert out.equals_unordered(sort_merge_join(left, right, on=on))
