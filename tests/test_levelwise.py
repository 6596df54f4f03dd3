"""Tests for the one tree-growth engine and the ``growth`` pricing label.

Sec. II-A of the paper: vertex-by-vertex and level-by-level growth "differ
in schedule, not semantics".  The trainer therefore grows every tree with
one level-synchronous engine (vectorized, with a per-vertex scalar
reference twin), and ``WorkProfile.growth`` is only a label telling the
hardware models which schedule to price.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import TaskKind, generate
from repro.gbdt import SplitParams, TrainParams, train
from tests.conftest import small_spec_factory

_TREE_FIELDS = (
    "field",
    "threshold_bin",
    "is_categorical",
    "missing_left",
    "left",
    "right",
    "weight",
    "depth",
)


def assert_same_fit(a, b) -> None:
    """Bit-identity of two training results: trees, work, losses, profile."""
    assert np.array_equal(a.losses, b.losses)
    assert a.base_margin == b.base_margin
    assert len(a.trees) == len(b.trees)
    for ta, tb in zip(a.trees, b.trees):
        for name in _TREE_FIELDS:
            assert np.array_equal(np.asarray(getattr(ta, name)), np.asarray(getattr(tb, name)))
    pa, pb = a.profile, b.profile
    assert np.array_equal(pa.losses, pb.losses)
    assert len(pa.trees) == len(pb.trees)
    for wa, wb in zip(pa.trees, pb.trees):
        for f in dataclasses.fields(wa):
            assert np.array_equal(getattr(wa, f.name), getattr(wb, f.name)), f.name
    if pa.root_bin_counts is None:
        assert pb.root_bin_counts is None
    else:
        assert np.array_equal(pa.root_bin_counts, pb.root_bin_counts)
    assert np.array_equal(pa.path_len_cv, pb.path_len_cv)
    assert np.array_equal(pa.smaller_child_fraction_mean, pb.smaller_child_fraction_mean)
    assert np.array_equal(pa.warp_conflict_factor, pb.warp_conflict_factor)
    assert pa.growth == pb.growth


def _fit_pair(data, params):
    """(scalar reference, vectorized engine) fits of the same problem."""
    return train(data, params, vectorized=False), train(data, params, vectorized=True)


@pytest.fixture(scope="module")
def data():
    return generate(small_spec_factory(n_records=700, seed=9))


@pytest.fixture(scope="module")
def pair(data):
    return _fit_pair(data, TrainParams(n_trees=4))


class TestEquivalence:
    """The engine and its scalar reference build the *same model*."""

    def test_identical_losses(self, pair):
        ref, vec = pair
        assert np.array_equal(ref.losses, vec.losses)

    def test_identical_predictions(self, pair, data):
        ref, vec = pair
        assert np.array_equal(ref.predict(data.codes), vec.predict(data.codes))

    def test_identical_tree_structure_counts(self, pair):
        ref, vec = pair
        for tr, tv in zip(ref.trees, vec.trees):
            assert tr.n_nodes == tv.n_nodes
            assert tr.n_leaves == tv.n_leaves
            assert tr.max_depth == tv.max_depth
            assert np.array_equal(tr.relevant_fields(), tv.relevant_fields())

    def test_identical_work_totals(self, pair):
        ref, vec = pair
        pr, pv = ref.profile, vec.profile
        assert pr.binned_records() == pv.binned_records()
        assert pr.partition_records() == pv.partition_records()
        assert pr.step2_evaluations() == pv.step2_evaluations()
        assert pr.traversal_hops() == pv.traversal_hops()

    def test_regression_task_equivalence(self):
        data = generate(small_spec_factory(n_records=400, task=TaskKind.REGRESSION))
        assert_same_fit(*_fit_pair(data, TrainParams(n_trees=2)))

    @given(
        n_records=st.one_of(st.integers(1, 12), st.integers(13, 900)),
        seed=st.integers(0, 10**4),
        task=st.sampled_from([TaskKind.BINARY, TaskKind.REGRESSION]),
        max_depth=st.integers(1, 8),
        n_trees=st.integers(1, 3),
        min_child_records=st.sampled_from([1, 2, 5, 40]),
        min_child_weight=st.sampled_from([0.0, 1.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_randomized_grid(
        self, n_records, seed, task, max_depth, n_trees, min_child_records, min_child_weight
    ):
        data = generate(small_spec_factory(n_records=n_records, seed=seed, task=task))
        params = TrainParams(
            n_trees=n_trees,
            max_depth=max_depth,
            split=SplitParams(
                min_child_records=min_child_records, min_child_weight=min_child_weight
            ),
        )
        assert_same_fit(*_fit_pair(data, params))


class TestUnsplittableRoot:
    """A root with fewer than ``2 * min_child_records`` records cannot split,
    so step 1 never bins it: no records binned, no root bin counts."""

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_root_not_binned(self, vectorized):
        data = generate(small_spec_factory(n_records=3, seed=1))
        params = TrainParams(n_trees=2, split=SplitParams(min_child_records=2))
        result = train(data, params, vectorized=vectorized)
        for work in result.profile.trees:
            assert work.n_nodes == 1
            assert not work.split_evaluated[0]
            assert work.n_binned[0] == 0
        assert result.profile.root_bin_counts is None
        assert result.profile.binned_records() == 0


class TestLevelWiseProfile:
    def test_growth_tag(self, pair):
        _, vec = pair
        assert vec.profile.growth == "vertex"
        level = dataclasses.replace(vec.profile, growth="level")
        assert level.growth == "level"
        assert vec.profile.growth == "vertex"

    def test_levels_counted(self, pair):
        _, vec = pair
        p = vec.profile
        assert p.total_levels() == sum(t.max_depth + 1 for t in p.trees)

    def test_mean_live_vertices_in_range(self, pair):
        _, vec = pair
        live = vec.profile.mean_live_vertices()
        assert 1.0 <= live <= 2**6

    def test_growth_survives_scaling(self, pair):
        _, vec = pair
        level = dataclasses.replace(vec.profile, growth="level")
        assert level.scaled(10).growth == "level"
        assert level.with_trees_scaled(20).growth == "level"

    def test_trees_validate(self, pair):
        for result in pair:
            for t in result.trees:
                t.validate()

    def test_root_counts_recorded(self, pair, data):
        _, vec = pair
        counts = vec.profile.root_bin_counts
        assert counts is not None
        assert counts.sum() == pytest.approx(data.n_records * data.n_fields)


class TestLevelWiseOnBooster:
    def test_fewer_sync_points_than_vertex(self, pair, executor):
        _, vec = pair
        pv = vec.profile.scaled(1000).with_trees_scaled(100)
        pl = dataclasses.replace(pv, growth="level")
        engine = executor.model("booster")
        tv = engine.training_times(pv)
        tl = engine.training_times(pl)
        # One profile priced under both labels.  Same PCIe payload; level-wise
        # pays fixed latency per level instead of per vertex, so the offload
        # ('other') component shrinks ...
        assert tl.other < tv.other
        # ... while step 1 slows down (replicas consumed by vertex histograms).
        assert tl.step1 >= tv.step1
