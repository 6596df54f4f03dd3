"""The GBDT training loop (steps 1-6 of Table I) with work instrumentation.

The trainer grows the ensemble one tree at a time:

1. histogram-bin the gradient statistics of the records reaching each
   vertex (with the smaller-child subtraction optimization);
2. choose the best split from the histogram (the host-offloaded step);
3. partition the vertex's records with the new predicate;
4. repeat to the configured depth or until gain stops exceeding gamma;
5. traverse the finished tree with *all* records, updating every record's
   g/h and the total loss;
6. start the next tree.

Every step increments the corresponding counters of a :class:`WorkProfile`,
which the hardware timing models consume.

Sec. II-A: "GB implementations can be configured to proceed vertex by vertex
or level by level".  The two configurations differ in schedule, not in
semantics: they choose the same splits, bin the same records and build the
same trees.  So there is one growth engine, and the schedule is a label.
``WorkProfile.growth`` is ``"vertex"`` (the paper's default assumption) on
every trained profile; a caller that wants level-by-level pricing relabels
the profile (``dataclasses.replace(profile, growth="level")``) and the
hardware models charge per-vertex histogram residency and one host round
trip per level instead of per vertex.

The engine itself works a level at a time, which is what lets the software
vectorize.  The default path keeps a whole level's histograms as row blocks
of ``(vertices, n_bins)`` matrices (:class:`_LevelHistograms`) and runs
every step over them at once:

* step 2 is a **batched search** over the level's vertices
  (:meth:`~repro.gbdt.split.SplitSearcher.best_split_many`), one call per
  run of consecutive rows;
* step 3 partitions the records of all splitting vertices in one array pass;
* step 1 bins all explicit (smaller) children through one grouped
  ``vertex x global-bin`` bincount
  (:meth:`~repro.gbdt.histogram.HistogramBuilder.build_grouped_arrays`), and
  every sibling histogram is derived by subtracting them from the parents'
  rows in place, so a level needs no more histogram memory than a
  vertex-by-vertex queue holds.

Vertices are visited in breadth-first order, the order a vertex-by-vertex
FIFO queue would visit them, so per-node work arrays line up with that
schedule.  The per-vertex loop survives as the scalar reference path
(``vectorized=False``): per-vertex ``np.nonzero(vertex_of_record == vid)``
scans, per-vertex ``build`` and ``best_split`` calls.  Both paths produce
bit-identical models and work profiles, which the equivalence tests assert.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from ..datasets.encoding import BinnedDataset
from .histogram import Histogram, HistogramBuilder
from .instrument import warp_conflict_factor
from .losses import Loss, loss_for_task
from .split import SplitDecision, SplitParams, SplitSearcher, leaf_weight
from .tree import Tree
from .workprofile import TreeWork, WorkProfile

__all__ = ["TrainParams", "TrainResult", "GBDTTrainer", "train"]


@dataclass(frozen=True)
class TrainParams:
    """Training hyper-parameters (XGBoost-style defaults).

    The paper's models are 500 trees of depth up to 6; functional simulation
    defaults to fewer trees because per-tree work is statistically homogeneous
    after the first few rounds and every reported figure is a time *ratio*.
    """

    n_trees: int = 30
    max_depth: int = 6
    learning_rate: float = 0.3  # XGBoost's default eta
    split: SplitParams = dc_field(default_factory=SplitParams)
    conflict_sample: int = 4096

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")


@dataclass
class TrainResult:
    """Trained ensemble plus the work profile of the run."""

    trees: list[Tree]
    profile: WorkProfile
    losses: np.ndarray
    base_margin: float
    loss: Loss
    params: TrainParams

    def predict_margin(self, codes: np.ndarray) -> np.ndarray:
        out = np.full(codes.shape[0], self.base_margin, dtype=np.float64)
        for t in self.trees:
            out += t.predict(codes)
        return out

    def predict(self, codes: np.ndarray) -> np.ndarray:
        return self.loss.predict_transform(self.predict_margin(codes))


@dataclass
class _LevelNode:
    """One live vertex during growth (reference path)."""

    tree_node: int  # id in the Tree being built
    g_tot: float
    h_tot: float
    c_tot: float
    hist: Histogram | None = None
    binned_here: int = 0  # records explicitly binned for this vertex
    n_reach: int = 0


@dataclass
class _WorkLog:
    """Per-node work counters of one tree, appended in visit order."""

    depths: list[int] = dc_field(default_factory=list)
    reaches: list[int] = dc_field(default_factory=list)
    binneds: list[int] = dc_field(default_factory=list)
    evals: list[bool] = dc_field(default_factory=list)
    issplits: list[bool] = dc_field(default_factory=list)
    sfields: list[int] = dc_field(default_factory=list)

    def add(self, depth: int, reach: int, binned: int, evaluated: bool, split_field: int) -> None:
        self.depths.append(depth)
        self.reaches.append(reach)
        self.binneds.append(binned)
        self.evals.append(evaluated)
        self.issplits.append(split_field >= 0)
        self.sfields.append(split_field)

    def tree_work(self, tree: Tree) -> TreeWork:
        """The tree's :class:`TreeWork`; path fields are filled in by ``fit``."""
        return TreeWork(
            depth=np.asarray(self.depths, dtype=np.int64),
            n_reach=np.asarray(self.reaches, dtype=np.int64),
            n_binned=np.asarray(self.binneds, dtype=np.int64),
            split_evaluated=np.asarray(self.evals, dtype=bool),
            is_split=np.asarray(self.issplits, dtype=bool),
            split_field=np.asarray(self.sfields, dtype=np.int64),
            relevant_fields=tree.relevant_fields(),
            sum_path_len=0.0,
            mean_path_len=0.0,
            max_path_len=0,
            loss_after=0.0,
        )


@dataclass
class _LevelHistograms:
    """Histograms of one level's live vertices (vectorized path).

    Rows live in blocks: ``blocks[b]`` holds three ``(rows, n_bins)``
    matrices (count, grad, hess), and vertex ``vid``'s histogram is row
    ``row[vid]`` of block ``block[vid]`` (block ``-1``: no histogram).  Each
    level adds one block, its smaller children, and writes every larger
    child's histogram over its parent's row, which the split left dead.  So
    a level holds about one row per live vertex, as a vertex-by-vertex queue
    would, and no interleaved copy of the level is ever made.
    """

    blocks: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]
    block: np.ndarray
    row: np.ndarray

    @classmethod
    def stacked(
        cls, count: np.ndarray, grad: np.ndarray, hess: np.ndarray, has_hist: np.ndarray
    ) -> _LevelHistograms:
        """One block whose row ``i`` is vertex ``i``'s histogram, where ``has_hist``."""
        n_live = has_hist.shape[0]
        block = np.where(has_hist, 0, -1).astype(np.int64)
        return cls({0: (count, grad, hess)}, block, np.arange(n_live, dtype=np.int64))

    def best_splits(
        self,
        searcher: SplitSearcher,
        elig: np.ndarray,
        g_tot: np.ndarray,
        h_tot: np.ndarray,
        c_tot: np.ndarray,
    ) -> list[SplitDecision | None]:
        """Step 2 for the ``elig`` vertices: one batched search per run of
        consecutive rows in a block (slices are views: no row is copied)."""
        decisions: list[SplitDecision | None] = [None] * self.block.shape[0]
        order = np.lexsort((self.row[elig], self.block[elig]))
        vids = elig[order]
        for lo, hi in _runs(self.block[vids], self.row[vids]):
            mats = self.blocks[int(self.block[vids[lo]])]
            r0, r1 = int(self.row[vids[lo]]), int(self.row[vids[hi - 1]]) + 1
            v = vids[lo:hi]
            batch = searcher.best_split_many(
                mats[0][r0:r1], mats[1][r0:r1], mats[2][r0:r1], g_tot[v], h_tot[v], c_tot[v]
            )
            for vid, d in zip(v, batch):
                decisions[int(vid)] = d
        return decisions


def _runs(block: np.ndarray, row: np.ndarray) -> list[tuple[int, int]]:
    """``[lo, hi)`` runs of entries, sorted by (block, row), that sit in one
    block on consecutive rows."""
    if block.size == 0:
        return []
    breaks = np.flatnonzero((np.diff(block) != 0) | (np.diff(row) != 1)) + 1
    bounds = [0, *breaks.tolist(), int(block.size)]
    return list(zip(bounds[:-1], bounds[1:]))


class GBDTTrainer:
    """Instrumented histogram-GBDT trainer for one dataset.

    ``vectorized`` selects the whole-level matrix pass (default) or the
    per-vertex scalar reference loop; both are numerically identical, and
    the reference is the oracle the equivalence tests run against.
    """

    def __init__(
        self,
        data: BinnedDataset,
        params: TrainParams | None = None,
        *,
        vectorized: bool = True,
    ) -> None:
        self.data = data
        self.params = params or TrainParams()
        self.vectorized = vectorized
        self.builder = HistogramBuilder(data)
        self.searcher = SplitSearcher(data.spec, self.builder.offsets, self.params.split)
        self.loss: Loss = loss_for_task(data.spec.task)

    # -- public API ---------------------------------------------------------------

    def fit(self) -> TrainResult:
        t_start = time.perf_counter()
        data = self.data
        params = self.params
        n = data.n_records
        y = data.y
        margin = np.full(n, self.loss.base_margin(y), dtype=np.float64)
        base_margin = float(margin[0]) if n else 0.0

        trees: list[Tree] = []
        tree_works: list[TreeWork] = []
        losses = np.empty(params.n_trees, dtype=np.float64)

        path_sum = 0.0
        path_sq_sum = 0.0
        path_count = 0
        child_fracs: list[float] = []

        root_bin_counts: np.ndarray | None = None
        for round_ix in range(params.n_trees):
            g, h = self.loss.gradients(margin, y)
            tree, work, fracs, root_counts = self._grow_tree(g, h)
            trees.append(tree)
            if root_bin_counts is None:
                root_bin_counts = root_counts

            # Step 5: one-tree traversal over *all* records, updating margins.
            pred, depths = tree.predict(data.codes, return_depth=True)
            margin += pred  # leaf weights already include the learning rate
            losses[round_ix] = self.loss.value(margin, y)

            work.sum_path_len = float(depths.sum())
            work.mean_path_len = float(depths.mean()) if n else 0.0
            work.max_path_len = int(depths.max()) if n else 0
            work.loss_after = float(losses[round_ix])
            tree_works.append(work)

            path_sum += float(depths.sum())
            path_sq_sum += float(np.square(depths, dtype=np.float64).sum())
            path_count += int(depths.size)
            child_fracs.extend(fracs)

        cv = 0.0
        if path_count and path_sum > 0:
            mean = path_sum / path_count
            var = max(path_sq_sum / path_count - mean * mean, 0.0)
            cv = float(np.sqrt(var) / mean)

        profile = WorkProfile(
            spec=data.spec,
            trees=tree_works,
            warp_conflict_factor=warp_conflict_factor(
                data.codes, sample=params.conflict_sample
            ),
            path_len_cv=cv,
            smaller_child_fraction_mean=float(np.mean(child_fracs)) if child_fracs else 0.5,
            train_seconds_wall=time.perf_counter() - t_start,
            losses=losses.copy(),
            root_bin_counts=root_bin_counts,
        )
        return TrainResult(
            trees=trees,
            profile=profile,
            losses=losses,
            base_margin=base_margin,
            loss=self.loss,
            params=params,
        )

    # -- one tree ------------------------------------------------------------------

    def _grow_tree(
        self, g: np.ndarray, h: np.ndarray
    ) -> tuple[Tree, TreeWork, list[float], np.ndarray | None]:
        if self.vectorized:
            return self._grow_tree_vectorized(g, h)
        return self._grow_tree_reference(g, h)

    def _grow_tree_vectorized(
        self, g: np.ndarray, h: np.ndarray
    ) -> tuple[Tree, TreeWork, list[float], np.ndarray | None]:
        """Whole-level pass: the live level is a :class:`_LevelHistograms`
        plus per-vertex total arrays.

        Per level: batched step-2 searches over runs of consecutive
        histogram rows, one vectorized record partition for all splitting
        vertices, one grouped bincount for all smaller children, and
        in-place ``parent rows - small-child rows`` subtractions for all
        siblings.
        Only O(live vertices) bookkeeping (tree node construction, work
        counters) stays in Python.  Bit-identical to
        :meth:`_grow_tree_reference`: vertex order, child vid numbering
        (2i / 2i+1), record order inside each child, and every float
        accumulation order are preserved.
        """
        data = self.data
        params = self.params
        n = data.n_records
        tree = Tree(data.spec)
        min_children = 2 * params.split.min_child_records
        log = _WorkLog()
        child_fracs: list[float] = []

        # Level state, indexed by level-local vertex id 0..L-1 (contiguous by
        # construction: the next level's vids are 2i/2i+1 per split i).  A
        # root too small to split is never binned.
        root_counts: np.ndarray | None = None
        if n >= min_children:
            root = self.builder.build(np.arange(n, dtype=np.int64), g, h)
            root_counts = root.count.copy()
            hists = _LevelHistograms.stacked(
                root.count[None, :], root.grad[None, :], root.hess[None, :], np.ones(1, bool)
            )
        else:
            hists = _LevelHistograms({}, np.full(1, -1, dtype=np.int64), np.zeros(1, np.int64))
        g_tot = np.array([float(g.sum())])
        h_tot = np.array([float(h.sum())])
        c_tot = np.array([float(n)])
        n_reach = np.array([n], dtype=np.int64)
        binned = np.array([n if root_counts is not None else 0], dtype=np.int64)
        vertex_of_record = np.zeros(n, dtype=np.int64)
        # Tree node ids of the level ABOVE's splitting vertices, in split
        # order: child vid j's parent is split j // 2.  Threaded as a local
        # (never trainer state), like the reference path's maps.
        prev_split_nodes: list[int] = []

        for depth in range(params.max_depth + 1):
            n_live = int(g_tot.shape[0])
            if n_live == 0:
                break

            # Step 2 for the whole level.
            if depth < params.max_depth:
                can_split = (n_reach >= min_children) & (hists.block >= 0)
            else:
                can_split = np.zeros(n_live, dtype=bool)
            decisions = hists.best_splits(
                self.searcher, np.flatnonzero(can_split), g_tot, h_tot, c_tot
            )

            tree_nodes = np.empty(n_live, dtype=np.int64)
            split_vids: list[int] = []
            split_decisions: list[SplitDecision] = []
            for vid in range(n_live):
                d = decisions[vid]
                split_field = d.field if d is not None and d.valid else -1
                log.add(
                    depth, int(n_reach[vid]), int(binned[vid]), bool(can_split[vid]), split_field
                )
                if split_field < 0:
                    w = params.learning_rate * leaf_weight(
                        float(g_tot[vid]), float(h_tot[vid]), params.split.lambda_
                    )
                    tree_nodes[vid] = tree.add_leaf(depth, w)
                else:
                    assert d is not None
                    tree_nodes[vid] = tree.add_split(
                        depth, d.field, d.threshold_bin, d.is_categorical, d.missing_left
                    )
                    split_vids.append(vid)
                    split_decisions.append(d)

            # Attach children pointers now that parents have real node ids.
            if depth > 0:
                for vid in range(n_live):
                    parent_node = prev_split_nodes[vid // 2]
                    if vid % 2 == 0:
                        tree.set_children(
                            parent_node, int(tree_nodes[vid]), tree.right[parent_node]
                        )
                    else:
                        tree.set_children(
                            parent_node, tree.left[parent_node], int(tree_nodes[vid])
                        )

            if not split_vids:
                break

            prev_split_nodes = [int(tree_nodes[v]) for v in split_vids]
            (
                vertex_of_record,
                fracs,
                g_tot,
                h_tot,
                c_tot,
                n_reach,
                binned,
                hists,
            ) = self._partition_level_vectorized(
                n_live, split_vids, split_decisions, vertex_of_record, hists, g, h, depth
            )
            child_fracs.extend(fracs)

        tree.validate()
        return tree, log.tree_work(tree), child_fracs, root_counts

    # -- one level: partition + explicit-child binning (vectorized) ----------------

    def _partition_level_vectorized(
        self,
        n_live: int,
        split_vids: list[int],
        decisions: list[SplitDecision],
        vertex_of_record: np.ndarray,
        hists: _LevelHistograms,
        g: np.ndarray,
        h: np.ndarray,
        depth: int,
    ) -> tuple:
        """Steps 3 + 1 for a whole level, no per-vertex passes.

        Partitions the records of ALL splitting vertices in one array pass
        (one gather over the code matrix instead of per-vertex ``nonzero``
        scans), bins all the explicit (smaller) children through one grouped
        bincount, and derives every sibling histogram by subtracting the
        small-child rows from the parent rows in place, one subtraction per
        run of consecutive parent rows.  Consumes ``hists``: the splitting
        vertices' rows are overwritten.  The counterpart of
        :meth:`_partition_level_reference` (the ``repro bench`` level-core
        microbench drives both on the same captured level state).

        Returns the next level's state:
        ``(vertex_of_record, fracs, g_tot, h_tot, c_tot, n_reach, binned,
        hists)``.
        """
        data = self.data
        params = self.params
        n = vertex_of_record.shape[0]

        # Step 3, all vertices at once: map each record's vertex to its
        # split slot (-1 for parked records and non-splitting vertices),
        # then evaluate every predicate in one gather over the codes.
        k = len(split_vids)
        sv = np.asarray(split_vids, dtype=np.int64)
        ds = decisions
        fields = np.array([d.field for d in ds], dtype=np.int64)
        thresholds = np.array([d.threshold_bin for d in ds], dtype=np.int64)
        is_cat = np.array([d.is_categorical for d in ds], dtype=bool)
        miss_left = np.array([d.missing_left for d in ds], dtype=bool)
        missing_bin = np.array(
            [data.spec.fields[int(f)].missing_bin for f in fields], dtype=np.int64
        )

        slot = np.full(n_live, -1, dtype=np.int64)
        slot[sv] = np.arange(k, dtype=np.int64)
        active = vertex_of_record >= 0
        rec_slot = np.full(n, -1, dtype=np.int64)
        rec_slot[active] = slot[vertex_of_record[active]]
        rows = np.nonzero(rec_slot >= 0)[0]  # ascending record order
        s = rec_slot[rows]
        codes_sel = data.codes[rows, fields[s]].astype(np.int64)
        missing = codes_sel == missing_bin[s]
        left = np.where(is_cat[s], codes_sel == thresholds[s], codes_sel <= thresholds[s])
        left = np.where(missing, miss_left[s], left)
        child_slot = 2 * s + (~left).astype(np.int64)

        new_assignment = np.full(n, -1, dtype=np.int64)
        new_assignment[rows] = child_slot
        counts = np.bincount(child_slot, minlength=2 * k)
        left_sizes = counts[0::2]
        right_sizes = counts[1::2]
        member_sizes = left_sizes + right_sizes
        fracs = (np.minimum(left_sizes, right_sizes) / np.maximum(member_sizes, 1)).tolist()

        # Next level's per-vertex totals, interleaved left/right.
        g_tot = np.empty(2 * k)
        h_tot = np.empty(2 * k)
        c_tot = np.empty(2 * k)
        g_tot[0::2] = [d.grad_left for d in ds]
        g_tot[1::2] = [d.grad_right for d in ds]
        h_tot[0::2] = [d.hess_left for d in ds]
        h_tot[1::2] = [d.hess_right for d in ds]
        c_tot[0::2] = [d.count_left for d in ds]
        c_tot[1::2] = [d.count_right for d in ds]
        n_reach = np.empty(2 * k, dtype=np.int64)
        n_reach[0::2] = left_sizes
        n_reach[1::2] = right_sizes
        binned = np.zeros(2 * k, dtype=np.int64)

        # Step 1: one grouped bincount bins ALL the explicit (smaller)
        # children, as a new block.  Its rows are ordered by where the
        # parents' histograms live, so each block's parents meet one
        # contiguous run of small-child rows.
        block = np.full(2 * k, -1, dtype=np.int64)
        row = np.zeros(2 * k, dtype=np.int64)
        blocks: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        if depth + 1 < params.max_depth:
            small_is_left = left_sizes <= right_sizes
            rec_is_small = left == small_is_left[s]
            parent_block, parent_row = hists.block[sv], hists.row[sv]
            order = np.lexsort((parent_row, parent_block))
            rank = np.empty(k, dtype=np.int64)
            rank[order] = np.arange(k, dtype=np.int64)
            small = self.builder.build_grouped_arrays(
                rows[rec_is_small], rank[s[rec_is_small]], k, g, h
            )
            # Sibling = parent - small, written over the parent's row in
            # place, one subtraction per run of consecutive parent rows.
            sorted_block, sorted_row = parent_block[order], parent_row[order]
            for lo, hi in _runs(sorted_block, sorted_row):
                b = int(sorted_block[lo])
                r0, r1 = int(sorted_row[lo]), int(sorted_row[hi - 1]) + 1
                for parent_m, small_m in zip(hists.blocks[b], small):
                    np.subtract(parent_m[r0:r1], small_m[lo:hi], out=parent_m[r0:r1])
                blocks[b] = hists.blocks[b]
            new_block = max(hists.blocks) + 1
            blocks[new_block] = small
            pos = 2 * np.arange(k, dtype=np.int64)
            small_pos = pos + (~small_is_left).astype(np.int64)
            large_pos = pos + small_is_left.astype(np.int64)
            block[small_pos] = new_block
            row[small_pos] = rank
            block[large_pos] = parent_block
            row[large_pos] = parent_row
            binned[small_pos] = np.where(small_is_left, left_sizes, right_sizes)

        return (
            new_assignment,
            fracs,
            g_tot,
            h_tot,
            c_tot,
            n_reach,
            binned,
            _LevelHistograms(blocks, block, row),
        )

    def _grow_tree_reference(
        self, g: np.ndarray, h: np.ndarray
    ) -> tuple[Tree, TreeWork, list[float], np.ndarray | None]:
        """Scalar reference: per-vertex dict state, per-vertex step 2."""
        data = self.data
        params = self.params
        n = data.n_records
        tree = Tree(data.spec)
        log = _WorkLog()
        child_fracs: list[float] = []

        # Every record carries its current vertex; -1 once it rests in a leaf.
        # A root too small to split is never binned.
        root_hist = None
        root_counts: np.ndarray | None = None
        if n >= 2 * params.split.min_child_records:
            root_hist = self.builder.build(np.arange(n, dtype=np.int64), g, h)
            root_counts = root_hist.count.copy()
        root = _LevelNode(
            tree_node=-1,  # assigned below
            g_tot=float(g.sum()),
            h_tot=float(h.sum()),
            c_tot=float(n),
            hist=root_hist,
            binned_here=n if root_hist is not None else 0,
            n_reach=n,
        )
        live = {0: root}  # level-local vertex id -> node state
        vertex_of_record = np.zeros(n, dtype=np.int64)
        # Vertex bookkeeping of the level ABOVE, threaded level to level as
        # locals (never trainer state, so concurrent/repeated ``fit`` calls
        # cannot observe each other's stale maps): child vid -> (parent vid,
        # is_left) and parent vid -> tree node id.
        parent_of: dict[int, tuple[int, bool]] = {}
        parent_node_ids: dict[int, int] = {}

        for depth in range(params.max_depth + 1):
            if not live:
                break
            splits_this_level: dict[int, SplitDecision] = {}

            # Step 2 for every vertex at this level.
            for vid, node in live.items():
                n_reach = node.n_reach
                can_split = (
                    depth < params.max_depth
                    and n_reach >= 2 * params.split.min_child_records
                    and node.hist is not None
                )
                decision = None
                if can_split:
                    assert node.hist is not None
                    decision = self.searcher.best_split(
                        node.hist, node.g_tot, node.h_tot, node.c_tot
                    )
                split_field = decision.field if decision is not None and decision.valid else -1
                log.add(depth, n_reach, node.binned_here, bool(can_split), split_field)

                if split_field < 0:
                    w = params.learning_rate * leaf_weight(
                        node.g_tot, node.h_tot, params.split.lambda_
                    )
                    node.tree_node = tree.add_leaf(depth, w)
                else:
                    assert decision is not None
                    node.tree_node = tree.add_split(
                        depth,
                        decision.field,
                        decision.threshold_bin,
                        decision.is_categorical,
                        decision.missing_left,
                    )
                    splits_this_level[vid] = decision

            # Attach children pointers now that parents have real node ids.
            if depth > 0:
                for vid, node in live.items():
                    parent_vid, is_left = parent_of[vid]
                    parent_node = parent_node_ids[parent_vid]
                    if is_left:
                        tree.set_children(parent_node, node.tree_node, tree.right[parent_node])
                    else:
                        tree.set_children(parent_node, tree.left[parent_node], node.tree_node)

            if not splits_this_level:
                break

            # Steps 3 + 1: one pass re-assigns every record whose vertex split
            # (leaves keep their records parked), then the explicit children's
            # records are binned.
            parent_node_ids = {vid: node.tree_node for vid, node in live.items()}
            next_live, parent_of, vertex_of_record, fracs = self._partition_level_reference(
                live, splits_this_level, vertex_of_record, g, h, depth
            )
            child_fracs.extend(fracs)
            live = next_live

        tree.validate()
        return tree, log.tree_work(tree), child_fracs, root_counts

    # -- one level: partition + explicit-child binning (reference) -----------------

    def _partition_level_reference(
        self,
        live: dict[int, _LevelNode],
        splits: dict[int, SplitDecision],
        vertex_of_record: np.ndarray,
        g: np.ndarray,
        h: np.ndarray,
        depth: int,
    ) -> tuple[dict[int, _LevelNode], dict[int, tuple[int, bool]], np.ndarray, list[float]]:
        """Scalar reference: per-vertex record scans and per-vertex builds.

        One ``np.nonzero`` scan and (for the smaller child) one ``build``
        call per splitting vertex -- the O(vertices x records) schedule the
        matrix pass replaces.  Kept as the equivalence oracle and the
        plainest statement of the growth semantics.
        """
        data = self.data
        params = self.params
        n = vertex_of_record.shape[0]
        next_live: dict[int, _LevelNode] = {}
        parent_of: dict[int, tuple[int, bool]] = {}
        fracs: list[float] = []
        new_assignment = np.full(n, -1, dtype=np.int64)
        next_vid = 0
        explicit_children: list[tuple[int, np.ndarray]] = []
        for vid, decision in splits.items():
            member = np.nonzero(vertex_of_record == vid)[0]
            codes = data.codes[member, decision.field].astype(np.int64)
            fspec = data.spec.fields[decision.field]
            missing = codes == fspec.missing_bin
            if decision.is_categorical:
                left = codes == decision.threshold_bin
            else:
                left = codes <= decision.threshold_bin
            left = np.where(missing, decision.missing_left, left)
            left_idx = member[left]
            right_idx = member[~left]
            fracs.append(min(left_idx.size, right_idx.size) / max(member.size, 1))

            lvid, rvid = next_vid, next_vid + 1
            next_vid += 2
            new_assignment[left_idx] = lvid
            new_assignment[right_idx] = rvid
            parent_of[lvid] = (vid, True)
            parent_of[rvid] = (vid, False)
            next_live[lvid] = _LevelNode(
                tree_node=-1,
                g_tot=decision.grad_left,
                h_tot=decision.hess_left,
                c_tot=decision.count_left,
                n_reach=int(left_idx.size),
            )
            next_live[rvid] = _LevelNode(
                tree_node=-1,
                g_tot=decision.grad_right,
                h_tot=decision.hess_right,
                c_tot=decision.count_right,
                n_reach=int(right_idx.size),
            )
            # Smaller-child rule, per vertex: bin the smaller explicitly,
            # derive the sibling by subtraction.
            if depth + 1 < params.max_depth:
                small_vid = lvid if left_idx.size <= right_idx.size else rvid
                small_idx = left_idx if small_vid == lvid else right_idx
                explicit_children.append((small_vid, small_idx))

        for small_vid, small_idx in explicit_children:
            small_hist = self.builder.build(small_idx, g, h)
            next_live[small_vid].hist = small_hist
            next_live[small_vid].binned_here = int(small_idx.size)
            parent_vid, small_is_left = parent_of[small_vid]
            sibling_vid = small_vid + 1 if small_is_left else small_vid - 1
            parent_hist = live[parent_vid].hist
            assert parent_hist is not None
            next_live[sibling_vid].hist = parent_hist.subtract(small_hist)

        return next_live, parent_of, new_assignment, fracs


def train(
    data: BinnedDataset, params: TrainParams | None = None, *, vectorized: bool = True
) -> TrainResult:
    """Convenience wrapper: ``train(load("higgs"))``."""
    return GBDTTrainer(data, params, vectorized=vectorized).fit()
