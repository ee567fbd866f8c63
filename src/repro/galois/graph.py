"""Galois graph ADT.

A :class:`Graph` owns CSR out-edge topology (and builds the in-edge CSC view
lazily), optional edge weights, and named node-data arrays whose storage is
charged to the machine's allocator — matching how Galois's ``LC_CSR_Graph``
stores label fields.

The vectorized neighborhood methods (:meth:`Graph.gather_out_edges`) give
bulk operators numpy-speed execution; their *cost* is charged by the loop
helpers in :mod:`repro.galois.loops`, not here.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.errors import IndexOutOfBounds, InvalidValue
from repro.runtime.base import Runtime, TrackedArray
from repro.sparse.csr import CSRMatrix, gather_rows


class Graph:
    """A directed graph in CSR form with optional edge weights."""

    def __init__(self, runtime: Runtime, csr: CSRMatrix,
                 weights: Optional[np.ndarray] = None, name: str = "graph"):
        if csr.nrows != csr.ncols:
            raise InvalidValue("graphs must have square adjacency structure")
        if weights is not None and len(weights) != csr.nvals:
            raise InvalidValue("weights length must equal edge count")
        self.runtime = runtime
        self.name = name
        self.csr = csr
        self.weights = weights
        self._csc: Optional[CSRMatrix] = None
        self._csc_weights: Optional[np.ndarray] = None
        # Structural-metadata memo (numpy-level only; the machine model's
        # accounting is untouched — kernels still declare the same streams).
        self._in_deg: Optional[np.ndarray] = None
        self.node_data: Dict[str, TrackedArray] = {}
        nbytes = csr.nbytes + (weights.nbytes if weights is not None else 0)
        self._allocation = runtime.charge_alloc(nbytes, f"Graph:{name}")

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    @property
    def nnodes(self) -> int:
        return self.csr.nrows

    @property
    def nedges(self) -> int:
        return self.csr.nvals

    def out_degrees(self) -> np.ndarray:
        """Out-degree per vertex (cached by the CSR; do not mutate)."""
        return self.csr.row_degrees()

    def in_degrees(self) -> np.ndarray:
        """In-degree per vertex (cached; do not mutate)."""
        if self._in_deg is None:
            self._in_deg = np.bincount(self.csr.indices,
                                       minlength=self.nnodes)
            self._in_deg.setflags(write=False)
        return self._in_deg

    def out_neighbors(self, node: int) -> np.ndarray:
        """Destination ids of ``node``'s out-edges."""
        cols, _ = self.csr.row(node)
        return cols

    def out_edges(self, node: int):
        """(destinations, weights) of ``node``'s out-edges."""
        if not 0 <= node < self.nnodes:
            raise IndexOutOfBounds(f"node {node} out of range")
        lo, hi = self.csr.indptr[node], self.csr.indptr[node + 1]
        dsts = self.csr.indices[lo:hi]
        w = None if self.weights is None else self.weights[lo:hi]
        return dsts, w

    def in_csr(self) -> CSRMatrix:
        """The in-edge (CSC) view, built once on first use."""
        if self._csc is None:
            self._csc = self.csr.transpose()
            self.runtime.charge_alloc(self._csc.nbytes, f"Graph:{self.name}:in")
            self.runtime.parallel(
                n_items=self.nedges,
                instr_per_item=4.0,
                streams=[
                    self.runtime.seq(self.csr.nbytes, self.nedges),
                    self.runtime.rand(self.csr.nbytes, self.nedges),
                ],
            )
        return self._csc

    # ------------------------------------------------------------------
    # Bulk neighborhood access (for vectorized operators)
    # ------------------------------------------------------------------
    def gather_out_edges(self, sources: np.ndarray):
        """Edges out of ``sources``: (dsts, weights, seg) concatenated.

        ``seg[k]`` is the position in ``sources`` edge ``k`` belongs to, so
        ``sources[seg]`` recovers per-edge source ids.
        """
        dsts, positions, seg = gather_rows(self.csr, sources)
        w = None if self.weights is None else self.weights[positions]
        return dsts, w, seg

    def gather_in_edges(self, targets: np.ndarray):
        """Edges into ``targets`` via the CSC view: (srcs, weights, seg)."""
        csc = self.in_csr()
        srcs, positions, seg = gather_rows(csc, targets)
        if self.weights is None:
            w = None
        else:
            if self._csc_weights is None:
                # Align weights with the CSC ordering once.
                order, _pattern = self.csr.transpose_plan()
                self._csc_weights = self.weights[order]
                self.runtime.charge_alloc(
                    self._csc_weights.nbytes, f"Graph:{self.name}:in_weights")
            w = self._csc_weights[positions]
        return srcs, w, seg

    # ------------------------------------------------------------------
    # Node data
    # ------------------------------------------------------------------
    def add_node_data(self, label: str, dtype, fill=0) -> np.ndarray:
        """Allocate a node-label array (charged, first-touch)."""
        tracked = self.runtime.new_array(self.nnodes, dtype,
                                         f"Graph:{self.name}:{label}",
                                         fill=fill)
        self.node_data[label] = tracked
        return tracked.data

    def get_data(self, label: str) -> np.ndarray:
        """A previously added node-data array."""
        return self.node_data[label].data

    def max_out_degree_vertex(self) -> int:
        """The bfs/sssp source the paper uses for non-road graphs (§IV)."""
        return int(np.argmax(self.out_degrees()))

    def sorted_by_degree(self) -> "Graph":
        """Relabeled copy with vertices in ascending total-degree order.

        This is the preprocessing step of Lonestar's triangle-listing tc;
        the sorted graph is also fed to the gb-sort/gb-ll variants (§V-B).
        """
        total = self.out_degrees() + self.in_degrees()
        perm = np.argsort(total, kind="stable").astype(np.int64)
        new_csr = self.csr.permute(perm)
        self.runtime.parallel(
            n_items=self.nedges,
            instr_per_item=6.0,
            streams=[self.runtime.seq(self.csr.nbytes, self.nedges),
                     self.runtime.rand(self.csr.nbytes, self.nedges)],
        )
        return Graph(self.runtime, new_csr, None, name=f"{self.name}_sorted")

    def __repr__(self):
        weighted = "weighted" if self.weights is not None else "unweighted"
        return (f"Graph({self.name!r}, |V|={self.nnodes}, |E|={self.nedges}, "
                f"{weighted})")
