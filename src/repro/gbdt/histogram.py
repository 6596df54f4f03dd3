"""Histogram binning of gradient statistics (step 1 of Table I).

A histogram is, per bin: the record count and the summed gradient statistics
(G, H).  We store the three arrays *flattened across fields* (the group-by-
field view): bin ``offsets[j] + k`` is bin ``k`` of field ``j``, including
each field's trailing missing/absent bin.  Every record contributes exactly
one update per field -- the density property Booster's mapping exploits.

Also implements the smaller-child *subtraction trick* (Sec. II-A): after a
split, only the smaller child is binned explicitly; the larger child's
histogram is the parent's minus the smaller child's.

Two vectorization layers keep step 1 out of interpreted Python:

* the **global-bin code matrix** (``codes + offsets``, int64) is computed
  once per dataset in :meth:`HistogramBuilder.__init__` instead of being
  re-materialized on every ``build`` call;
* :meth:`HistogramBuilder.build_grouped` bins the records of *many* vertices
  in one ``np.bincount`` over a composite ``vertex x global-bin`` key --
  the trainer's whole-level pass runs through this core (``build`` is the
  single-group special case).  When the composite bin space exceeds
  :data:`GROUPED_FALLBACK_CELLS` the accumulation arrays no longer fit in
  cache and the builder falls back to bit-identical per-group bincounts.

Bit-exactness note: ``np.bincount`` accumulates weights in input order, and
the grouped composite key keeps each (group, bin) cell's updates in the same
record order a per-group ``build`` call would use, so grouped and per-group
histograms are identical to the last ulp -- which is what lets the grouped
trainer's twins produce byte-identical models (property-tested).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datasets.encoding import BinnedDataset

__all__ = ["GROUPED_FALLBACK_CELLS", "Histogram", "HistogramBuilder"]

#: Composite-key cell budget (``n_groups * n_bins``) above which
#: :meth:`HistogramBuilder.build_grouped_arrays` switches from the single
#: composite-key ``np.bincount`` to a per-group build.  The composite key
#: accumulates into three dense float64 arrays of ``n_groups * n_bins``
#: cells; once those fall out of last-level cache the scattered updates
#: hit DRAM and the "one big bincount" loses badly to many small ones
#: (measured 8-14x slower at 16-31M cells on this container, crossover
#: between 4M and 8M cells at realistic 24-100 records/group).  Below the
#: threshold the composite key wins whenever groups are small -- the deep
#: level-wise case -- so the default stays on the grouped path there.
GROUPED_FALLBACK_CELLS = 1 << 22


@dataclass
class Histogram:
    """Per-bin count / G / H, flattened across fields."""

    count: np.ndarray  # float64 (so subtraction never wraps), shape (n_bins,)
    grad: np.ndarray  # G per bin
    hess: np.ndarray  # H per bin

    def __post_init__(self) -> None:
        if not (self.count.shape == self.grad.shape == self.hess.shape):
            raise ValueError("histogram arrays must share a shape")

    @property
    def n_bins(self) -> int:
        return int(self.count.shape[0])

    def subtract(self, child: "Histogram") -> "Histogram":
        """Parent minus explicitly-binned child = the other child."""
        if child.n_bins != self.n_bins:
            raise ValueError("cannot subtract histograms of different sizes")
        return Histogram(
            count=self.count - child.count,
            grad=self.grad - child.grad,
            hess=self.hess - child.hess,
        )

    def totals_for_field(self, lo: int, hi: int) -> tuple[float, float, float]:
        """(count, G, H) summed over one field's bin range [lo, hi)."""
        return (
            float(self.count[lo:hi].sum()),
            float(self.grad[lo:hi].sum()),
            float(self.hess[lo:hi].sum()),
        )


class HistogramBuilder:
    """Vectorized histogram construction for one dataset.

    The builder owns the global bin space (offsets per field) and the
    precomputed global-bin code matrix.  ``np.bincount`` with weights is the
    NumPy analogue of the accumulate-into-SRAM operation each Booster BU
    performs.
    """

    def __init__(
        self, data: BinnedDataset, grouped_fallback_cells: int | None = None
    ) -> None:
        self.data = data
        self.offsets = data.bin_offsets()
        self.n_bins = int(self.offsets[-1])
        #: Cell budget for the composite-key grouped path; see
        #: :data:`GROUPED_FALLBACK_CELLS`.  Overridable per instance so the
        #: cache-residency fallback can be forced (or disabled) in tests.
        self.grouped_fallback_cells = (
            GROUPED_FALLBACK_CELLS if grouped_fallback_cells is None else int(grouped_fallback_cells)
        )
        self._col_offsets = self.offsets[:-1].astype(np.int64)
        #: Global-bin codes (``codes + per-field offsets``), materialized once:
        #: every ``build``/``build_grouped`` call used to pay an astype + add
        #: over its slice; now binning is a pure gather + bincount.
        self._global_codes = data.codes.astype(np.int64) + self._col_offsets[None, :]

    def _accumulate(
        self, flat: np.ndarray, index: np.ndarray, g: np.ndarray, h: np.ndarray, length: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Shared bincount core: ``flat`` composite keys, one per (record, field)."""
        n_fields = self.data.n_fields
        gw = np.repeat(g[index], n_fields)
        hw = np.repeat(h[index], n_fields)
        count = np.bincount(flat, minlength=length).astype(np.float64)
        grad = np.bincount(flat, weights=gw, minlength=length)
        hess = np.bincount(flat, weights=hw, minlength=length)
        return count, grad, hess

    def build(self, index: np.ndarray, g: np.ndarray, h: np.ndarray) -> Histogram:
        """Bin the records selected by ``index`` (positions into the dataset).

        Exactly ``len(index) * n_fields`` bin updates are performed -- the
        quantity the timing models charge for step 1.
        """
        if index.size == 0:
            z = np.zeros(self.n_bins, dtype=np.float64)
            return Histogram(count=z.copy(), grad=z.copy(), hess=z.copy())
        flat = self._global_codes[index].ravel()
        count, grad, hess = self._accumulate(flat, index, g, h, self.n_bins)
        return Histogram(count=count, grad=grad, hess=hess)

    def build_grouped(
        self,
        index: np.ndarray,
        group_of: np.ndarray,
        n_groups: int,
        g: np.ndarray,
        h: np.ndarray,
    ) -> list[Histogram]:
        """Bin many vertices' records in ONE pass (the level-wise step 1).

        ``index`` selects records (positions into the dataset) and
        ``group_of`` assigns each selected record to a group in
        ``[0, n_groups)``; the records of every group are binned through a
        single composite ``group x global-bin`` key ``np.bincount``, instead
        of one ``build`` call per group.  Returns one :class:`Histogram` per
        group (rows of one backing matrix).

        Each (group, bin) cell accumulates its records in ``index`` order, so
        the result is bit-identical to ``build(index[group_of == k], g, h)``
        for every ``k`` whenever ``index`` is grouped-stably ordered (e.g.
        ascending record order, as the trainers produce).
        """
        count, grad, hess = self.build_grouped_arrays(index, group_of, n_groups, g, h)
        return [
            Histogram(count=count[k], grad=grad[k], hess=hess[k]) for k in range(n_groups)
        ]

    def build_grouped_arrays(
        self,
        index: np.ndarray,
        group_of: np.ndarray,
        n_groups: int,
        g: np.ndarray,
        h: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`build_grouped` returning the raw ``(n_groups, n_bins)``
        count/grad/hess matrices (no per-group :class:`Histogram` objects) --
        the form the trainer's vectorized path consumes, where sibling
        histograms are derived by subtracting these rows from the parents'."""
        if n_groups < 0:
            raise ValueError("n_groups must be non-negative")
        if index.shape != group_of.shape:
            raise ValueError("index and group_of must match in shape")
        if index.size and (group_of.min() < 0 or group_of.max() >= n_groups):
            raise ValueError("group ids must lie in [0, n_groups)")
        n_bins = self.n_bins
        if index.size == 0:
            zeros = np.zeros((3, n_groups, n_bins), dtype=np.float64)
            return zeros[0], zeros[1], zeros[2]
        if n_groups * n_bins > self.grouped_fallback_cells:
            return self._build_per_group_arrays(index, group_of, n_groups, g, h)
        base = (group_of.astype(np.int64) * n_bins)[:, None]
        flat = (self._global_codes[index] + base).ravel()
        count, grad, hess = self._accumulate(flat, index, g, h, n_groups * n_bins)
        return (
            count.reshape(n_groups, n_bins),
            grad.reshape(n_groups, n_bins),
            hess.reshape(n_groups, n_bins),
        )

    def _build_per_group_arrays(
        self,
        index: np.ndarray,
        group_of: np.ndarray,
        n_groups: int,
        g: np.ndarray,
        h: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cache-residency fallback for :meth:`build_grouped_arrays`.

        One small ``np.bincount`` per group instead of one composite-key
        bincount: each group's accumulation arrays are ``n_bins`` cells and
        stay cache-resident regardless of how many groups the level has.

        Bit-identical to the composite-key path: the stable argsort keeps
        each group's records in ``index`` order, which is the order the
        composite key's (group, bin) cells accumulate in.
        """
        n_bins = self.n_bins
        count = np.zeros((n_groups, n_bins), dtype=np.float64)
        grad = np.zeros((n_groups, n_bins), dtype=np.float64)
        hess = np.zeros((n_groups, n_bins), dtype=np.float64)
        order = np.argsort(group_of, kind="stable")
        sizes = np.bincount(group_of, minlength=n_groups)
        bounds = np.concatenate(([0], np.cumsum(sizes)))
        for k in range(n_groups):
            sel = order[bounds[k] : bounds[k + 1]]
            if sel.size == 0:
                continue
            idx = index[sel]
            flat = self._global_codes[idx].ravel()
            count[k], grad[k], hess[k] = self._accumulate(flat, idx, g, h, n_bins)
        return count, grad, hess

    def build_brute_force(self, index: np.ndarray, g: np.ndarray, h: np.ndarray) -> Histogram:
        """Reference implementation (pure loops) used only by tests."""
        count = np.zeros(self.n_bins, dtype=np.float64)
        grad = np.zeros(self.n_bins, dtype=np.float64)
        hess = np.zeros(self.n_bins, dtype=np.float64)
        for i in index:
            for j in range(self.data.n_fields):
                b = int(self.offsets[j]) + int(self.data.codes[i, j])
                count[b] += 1.0
                grad[b] += g[i]
                hess[b] += h[i]
        return Histogram(count=count, grad=grad, hess=hess)

    def field_slice(self, field: int) -> slice:
        """Global-bin slice of one field (missing bin included)."""
        return slice(int(self.offsets[field]), int(self.offsets[field + 1]))
