"""Materialised-window sampling: the union-find twin of the lazy engine.

For experiments confined to a finite window (a box or annulus around the
origin or another centre) it is faster to hash every edge of the window in
one vectorised pass and read off connectivity with
`scipy.sparse.csgraph.connected_components` than to run a Python-level BFS.
Because edge states are pure functions of ``(seed, sample_id, edge)``, this
path sees *exactly* the same configurations as the lazy explorer — the tests
exploit that to cross-validate the two implementations edge for edge.  This
is the only module that imports scipy: every graph search lives here.

The edge keys (sample-independent) are hashed once per window, and the
window's edge list is its CSR skeleton: in the canonical order of a CSR
matrix (by first row, then second row), with both row columns contiguous
int32 arrays.  :func:`build_window` lays the edges out in that order as it
finds them, one (site x offset) grid with the offsets in lexicographic
order, so no sort runs.  Producing a sample costs a single avalanche pass,
one ``bincount`` and ``cumsum`` of the open edges' first rows (the sample's
``indptr``), one take of their second rows (its ``indices``) and one
connected-components call; no COO conversion or canonicalisation runs per
sample.
A statistic that needs every component (a crossing, a spanning cluster,
kernel extraction's connection queries) reads :func:`component_labels`.

A question about the origin alone (does its open cluster reach a target
set, how far does it reach?) is answered by :func:`origin_cluster`: one
breadth-first search from the origin over the same CSR matrix, which costs
scipy's transpose of the matrix plus the size of that cluster, not a
traversal of the whole window; a target set is reached iff the cluster's
mask holds one of its rows.
:func:`escape_levels` answers a whole decreasing grid of p per sample from
one minimum spanning tree, since the open edge sets are nested in p, and
reads every target set (say, the shells of several nested radii) off that
one tree.

On a small window scipy's fixed cost per call (three sparse-matrix
constructions, a validation and a transpose) outweighs the search itself,
so the primitives also take a *block* of samples.  Given a ``range`` of
sample ids, :func:`sample_open_edges` returns a ``(B, m)`` block from one
hash pass; :func:`component_labels` and :func:`origin_cluster` lay the
block's ``B`` samples on the diagonal of one ``Bn x Bn`` matrix and answer
all of them with one scipy call, row for row what ``B`` one-sample calls
give (label numbers included).  :func:`sample_blocks` cuts a run of sample
ids into blocks of at most :data:`BLOCK_SITES` sites, or one sample when a
single window is larger than that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components, minimum_spanning_tree

from .engine import PercolationConfig, edge_keys_bulk, states_from_keys
from .lattice import LatticeSpec, Site, WindowTooLargeError

#: Site budget of a block of samples: :func:`sample_blocks` cuts a run of
#: sample ids into blocks of ``BLOCK_SITES // n_sites`` ids, at least one.
#: Far larger blocks are slower per sample again: on a 2-vCPU Xeon, 120
#: one-arm samples at B(16) took 6.5 ms in blocks of 15 (this budget), 20 ms
#: one by one and 9.2 ms in one block of 120.
BLOCK_SITES = 2 ** 14


@dataclass
class Window:
    """An annulus/box window around ``centre`` with precomputed edge keys.

    ``sites`` and ``keys`` are absolute; radii, rows and norms are relative
    to the centre.  Edges are in CSR order (by first row, then second row),
    in ``edge_rows`` and ``keys`` alike."""

    spec: LatticeSpec
    outer: int
    inner: int  # hole radius; -1 for a solid box
    seed: int
    centre: Site
    sites: np.ndarray  # (n, d) int64, lexicographic order over the full box
    member: np.ndarray  # (n,) bool, True for sites of the region
    # (m, 2) int32 row indices (a_row, b_row), a_row < b_row; column-major,
    # so each column is a contiguous array
    edge_rows: np.ndarray
    keys: np.ndarray  # (m,) uint64 edge keys

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    @property
    def n_edges(self) -> int:
        return len(self.keys)

    def row_of(self, x: Site) -> int:
        """Row index of one site (see :meth:`rows_of`)."""
        return int(self.rows_of([x])[0])

    def _coords(self, xs: Iterable[Site]) -> np.ndarray:
        """The sites as an ``(n, d)`` integer array; refuses (``ValueError``)
        a site that does not have ``d`` coordinates."""
        d = self.spec.d
        c = np.asarray(xs if isinstance(xs, np.ndarray) else list(xs), dtype=np.int64)
        if c.shape == (0,):
            c = c.reshape(0, d)
        if c.ndim != 2 or c.shape[1] != d:
            raise ValueError(f"sites must have {d} coordinates, got an array of shape {c.shape}")
        return c

    def rows_of(self, xs: Iterable[Site]) -> np.ndarray:
        """Row indices of sites by stride arithmetic, in one vectorised step.

        Refuses (``ValueError``) a site that does not have ``d`` coordinates
        or lies outside the window's box."""
        d, side = self.spec.d, 2 * self.outer + 1
        c = self._coords(xs)
        rel = c - np.asarray(self.centre, dtype=np.int64)
        if np.abs(rel).max(initial=0) > self.outer:
            bad = c[(np.abs(rel) > self.outer).any(axis=1)][0]
            raise ValueError(f"site {tuple(bad.tolist())} outside window box")
        return (rel + self.outer) @ side ** np.arange(d - 1, -1, -1)

    def box_rows(self, xs: Iterable[Site]) -> np.ndarray:
        """Rows of the sites of ``xs`` that lie in the window's box; the
        others are dropped.  Refuses (``ValueError``) a site that does not
        have ``d`` coordinates, as :meth:`rows_of` does."""
        c = self._coords(xs)
        return self.rows_of(c[(np.abs(c - self.centre) <= self.outer).all(axis=1)])

    def norms(self) -> np.ndarray:
        """l-infinity distance of every box site from the centre."""
        return _linf_norms((self.sites - np.asarray(self.centre, dtype=np.int64)).T)


def _linf_norms(cols: Sequence[np.ndarray]) -> np.ndarray:
    """l-infinity norm of the sites with coordinate columns ``cols`` (any
    broadcastable shape), one column at a time."""
    return np.maximum.reduce([np.abs(x) for x in cols])


def check_window_size(spec: LatticeSpec, outer: int) -> int:
    """Site count of a radius-``outer`` window; raises
    :class:`WindowTooLargeError` over 40 million sites or when its edge count
    could overflow the skeleton's int32 ``indptr``."""
    n = (2 * outer + 1) ** spec.d
    if n > 40_000_000 or n * (spec.degree // 2) > np.iinfo(np.int32).max:
        raise WindowTooLargeError(f"window with {n} sites is too large to materialise")
    return n


@lru_cache(maxsize=8)
def _layout(spec: LatticeSpec, outer: int, inner: int) -> Tuple[np.ndarray, ...]:
    """What a window's layout does not take from its centre: the grid of
    sites relative to it, the member mask, the lexicographically positive
    offsets, the (site x offset) validity mask and the edge rows.  Kept
    read-only across calls: the regularity resampling lays out the same box
    around vertex after vertex."""
    d = spec.d
    side = 2 * outer + 1
    n = check_window_size(spec, outer)
    axis = np.arange(-outer, outer + 1, dtype=np.int64)
    rel = [g.ravel() for g in np.meshgrid(*[axis] * d, indexing="ij")]  # lex order
    member = _linf_norms(rel) > inner

    # each edge once, from its lexicographically smaller end; rows are in
    # lexicographic order, so for a fixed first row the second rows ascend
    # with the offsets taken in lexicographic order
    offs = np.array(sorted(v for v in spec.offsets() if v > (0,) * d), dtype=np.int64)
    steps = offs @ np.array([side ** (d - 1 - j) for j in range(d)], dtype=np.int64)
    b_norms = _linf_norms([x[:, None] + o for x, o in zip(rel, offs.T)])  # (n, k)
    ok = member[:, None] & (b_norms <= outer) & (b_norms > inner)
    rows = np.arange(n)[:, None]
    edge_rows = np.array([np.broadcast_to(rows, ok.shape)[ok], (rows + steps)[ok]],
                         dtype=np.int32).T
    layout = (np.stack(rel, axis=1), member, offs, ok, edge_rows)
    for a in layout:
        a.flags.writeable = False
    return layout


def build_window(spec: LatticeSpec, seed: int, outer: int, inner: int = -1,
                 centre: Optional[Site] = None) -> Window:
    """Materialise ``B(centre; outer) \\ B(centre; inner)``, centred at the
    origin by default; hash its edges at absolute coordinates, so an edge
    has one key in every window that holds it.

    Only edges with both endpoints in the region are kept, in CSR order by
    construction: an edge runs from a first row ``a`` by a lexicographically
    positive offset, and with the offsets in lexicographic order the
    (site x offset) grid read row by row is already sorted by first row,
    then second row, so no sort runs.  The keys are hashed over that grid
    (each first end once) and compressed by the same validity mask.  The
    layout, all but the sites and keys, is shared by every window of the
    same lattice and radii (:func:`_layout`).
    Memory scales like ``d * (2*outer+1)^d``; callers are expected to stay at
    desk scale, and a window :func:`check_window_size` refuses raises
    :class:`WindowTooLargeError`.
    """
    centre = (0,) * spec.d if centre is None else tuple(centre)
    grid, member, offs, ok, edge_rows = _layout(spec, outer, inner)
    sites = grid + np.asarray(centre, dtype=np.int64)
    a_cols = [x[:, None] for x in sites.T]
    keys = edge_keys_bulk(seed, a_cols, [x + o for x, o in zip(a_cols, offs.T)])[ok]
    return Window(spec=spec, outer=outer, inner=inner, seed=seed, centre=centre,
                  sites=sites, member=member, edge_rows=edge_rows, keys=keys)


def sample_open_edges(win: Window, cfg: PercolationConfig,
                      ids: Union[int, range]) -> np.ndarray:
    """Boolean open/closed vector over the window's edge list for the sample
    id ``ids``; for a ``range`` of ids, the ``(B, m)`` block whose row ``i``
    is the vector of ``ids[i]``, from one hash pass.  Ids outside
    ``[0, 2^64)`` raise ``ValueError`` in both forms."""
    if cfg.seed != win.seed or cfg.spec != win.spec:
        raise ValueError("config does not match the window's seed/lattice")
    return states_from_keys(win.keys, ids, cfg.threshold).astype(bool)


def sample_blocks(win: Window, ids: range) -> Iterator[range]:
    """``ids`` cut, in order, into blocks of ``BLOCK_SITES // n_sites`` ids
    (at least one): the blocks one scipy call searches together."""
    size = max(1, BLOCK_SITES // win.n_sites)
    for i in range(0, len(ids), size):
        yield ids[i:i + size]


def _edge_graph(win: Window, sel: np.ndarray, weights: Optional[np.ndarray] = None,
                root: Optional[int] = None):
    """The CSR matrix of the edges where ``sel`` holds, with unit data or
    ``weights[sel]``, built straight from the window's skeleton: it is
    canonical (sorted rows and columns, no duplicates) as it stands.

    A ``(B, m)`` block ``sel`` lays its ``B`` samples on the diagonal, sample
    ``b`` on rows ``b*n`` to ``b*n + n - 1``; an ``(m,)`` vector is the block
    of one.  With ``root``, one more row, the last, is a virtual node joined
    to row ``root`` of every sample."""
    blocks = 1 if sel.ndim == 1 else len(sel)
    n = win.n_sites
    heads, tails = win.edge_rows.T
    if blocks > 1:  # the skeleton repeated down the diagonal, in CSR order still
        shift = np.arange(0, blocks * n, n, dtype=np.int32)[:, None]
        heads, tails = (heads + shift).ravel(), (tails + shift).ravel()
    # integer take: boolean indexing is several times slower on random masks
    on = np.flatnonzero(sel)
    size = blocks * n
    counts = np.bincount(heads.take(on), minlength=size)
    indices = tails.take(on)
    data = np.ones(len(on)) if weights is None else weights.take(on)
    if root is not None:
        counts = np.append(counts, blocks)
        indices = np.append(indices, np.arange(root, size, n, dtype=np.int32))
        data = np.append(data, np.ones(blocks))
        size += 1
    indptr = np.zeros(size + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    return csr_matrix((data, indices, indptr), shape=(size, size))


def _unblocked(win: Window, open_mask: np.ndarray,
               blocked_rows: Optional[np.ndarray]) -> np.ndarray:
    """``open_mask`` less every edge incident to a row of ``blocked_rows``."""
    if blocked_rows is None or not len(blocked_rows):
        return open_mask
    blocked = np.zeros(win.n_sites, dtype=bool)
    blocked[blocked_rows] = True
    er = win.edge_rows
    return open_mask & ~blocked[er[:, 0]] & ~blocked[er[:, 1]]


def component_labels(
    win: Window,
    open_mask: np.ndarray,
    blocked_rows: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Component label of every box site under the open edges.

    The open edges go to ``connected_components`` as a CSR matrix read off
    the window's CSR skeleton: ``bincount`` and ``cumsum`` of the open edges'
    first rows give the ``indptr``, their int32 second rows the ``indices``.
    Components are numbered in the order of their first row.

    ``blocked_rows`` (obstacle sites) are isolated: every incident edge is
    dropped.  Sites outside the region keep their own singleton labels (they
    have no incident edges by construction).

    A ``(B, m)`` block of masks is labelled in one call and gives ``(B, n)``
    labels.  A sample's first row opens a new component, so subtracting its
    label renumbers each row from 0, label for label as the sample alone.
    """
    graph = _edge_graph(win, _unblocked(win, open_mask, blocked_rows))
    labels = connected_components(graph, directed=False)[1]
    if open_mask.ndim > 1:  # a lone sample is numbered from 0 already
        labels = labels.reshape(len(open_mask), win.n_sites)
        labels -= labels[:, :1]
    return labels


def origin_cluster(
    win: Window,
    open_mask: np.ndarray,
    origin_row: int,
    blocked_rows: Optional[np.ndarray],
) -> np.ndarray:
    """Boolean row mask of the open cluster of ``origin_row``: the sites
    that share its :func:`component_labels` label, read by one breadth-first
    search from it instead of a labelling of the whole window.  Blocked rows
    are isolated as there.

    A ``(B, m)`` block of masks gives ``(B, n)`` cluster masks from one
    search, started at a virtual root joined to every sample's origin row;
    a single mask is searched from its origin row, with no extra node."""
    sel = _unblocked(win, open_mask, blocked_rows)
    blocks = sel.shape[:-1]  # () for a single mask
    size = math.prod(blocks) * win.n_sites
    if blocks:
        graph, start = _edge_graph(win, sel, root=origin_row), size
    else:
        graph, start = _edge_graph(win, sel), origin_row
    mask = np.zeros(graph.shape[0], dtype=bool)
    mask[breadth_first_order(graph, start, directed=False, return_predecessors=False)] = True
    return mask[:size].reshape(blocks + (win.n_sites,))


def escape_levels(
    win: Window,
    cfgs: Sequence[PercolationConfig],
    sample_ids: Iterable[int],
    origin_row: int,
    target_sets: Sequence[np.ndarray],
) -> Iterator[Tuple[int, Tuple[int, ...]]]:
    """``(sample_id, ks)`` for each sample id, in order: ``ks`` holds one
    ``k`` per array of rows in ``target_sets``, and the origin reaches a row
    of that array under exactly the first ``k`` of ``cfgs``.

    ``cfgs`` must have non-increasing thresholds, so the open edge sets are
    nested and the configs under which the origin connects form a prefix.
    An edge open under exactly the first ``level`` configs gets the weight
    ``K + 1 - level`` (edges closed under every config are dropped).  The
    origin reaches a target under config ``i`` iff some path avoids every
    weight above ``K - i``; a minimum spanning tree holds a path minimising
    the largest weight to every node, so one tree per sample answers every
    config (Newman & Ziff's one sweep over all occupation levels), and every
    target set: each reads its ``k`` off the same tree.
    """
    n_k = len(cfgs)
    if any(b.threshold > a.threshold for a, b in zip(cfgs, cfgs[1:])):
        raise ValueError("configs must have non-increasing thresholds")
    n = win.n_sites
    for sid in sample_ids:
        level = np.zeros(win.n_edges, dtype=np.int64)
        for cfg in cfgs:
            level += sample_open_edges(win, cfg, sid)
        graph = _edge_graph(win, level > 0, n_k + 1.0 - level)
        tree = minimum_spanning_tree(graph).tocoo()
        order, pred = breadth_first_order(tree, origin_row, directed=False,
                                          return_predecessors=True)
        # parent pointers with the origin and unreached rows as fixed points;
        # ``up[v]`` is the largest weight between v and its current parent
        parent = np.arange(n)
        parent[order[1:]] = pred[order[1:]]
        up = np.zeros(n)
        child = np.where(pred[tree.col] == tree.row, tree.col, tree.row)
        up[child] = tree.data
        while True:  # pointer jumping: about log2(tree depth) rounds
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            np.maximum(up, up[parent], out=up)
            parent = grand
        up[parent != origin_row] = np.inf
        # an origin that is itself a target connects under every config
        yield sid, tuple(int(np.clip(n_k + 1 - up[rows].min(initial=np.inf), 0, n_k))
                         for rows in target_sets)


def connection_indicator(
    labels: np.ndarray, source_rows: np.ndarray, target_rows: np.ndarray
) -> bool:
    """Do a source and a target share a component label?"""
    return bool(np.isin(labels[source_rows], labels[target_rows]).any())


def shell_rows(win: Window, radius: int) -> np.ndarray:
    """Rows of sites at l-infinity norm exactly ``radius``."""
    return np.flatnonzero(win.norms() == radius)

