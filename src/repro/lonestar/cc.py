"""Lonestar connected components: Afforest, plus the ls-sv variant.

**Afforest** ([14], Table II's "ls") is the paper's showcase for
fine-grained vertex operations that a matrix API cannot express:

1. *neighbor rounds*: union each vertex with only its first couple of
   neighbors — a sampled subgraph, processing a small fraction of edges;
2. *component sampling*: estimate the largest intermediate component from a
   random vertex sample;
3. *finish*: only vertices outside that component process their remaining
   edges.

On social/web graphs the giant component forms in step 1, so step 3 touches
very few edges — an order of magnitude fewer instructions and memory
accesses than pointer-jumping over every edge every round (Table IV).

**Shiloach-Vishkin** (``ls-sv``, Figure 3c) hooks along all edges each
round, but being asynchronous it short-circuits parent chains *unboundedly*
within a round — unlike LAGraph's FastSV, whose bulk operations perform one
bounded jump per round.
"""

from __future__ import annotations

import numpy as np

from repro.engine.events import OpEvent
from repro.galois.graph import Graph
from repro.sparse.segreduce import scatter_reduce

#: Vertices sampled to identify the giant intermediate component.
SAMPLE_SIZE = 1024


# The union-find below runs on a Python list copy of the parent array:
# a list read yields a plain int where a numpy read boxes a scalar.  Visits
# keep their order and are never batched, since path halving makes the
# charged hop count depend on the order of every pointer write.


def _find(parent: list, u: int) -> int:
    """Union-find root with path halving (a fine-grained vertex op)."""
    while parent[u] != u:
        parent[u] = parent[parent[u]]
        u = parent[u]
    return u


def _link(parent: list, u: int, v: int) -> int:
    """Union by minimum root; returns the number of pointer hops charged."""
    hops = 0
    while parent[u] != u:
        parent[u] = parent[parent[u]]
        u = parent[u]
        hops += 1
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
        hops += 1
    if u == v:
        return hops + 2
    if u < v:
        parent[v] = u
    else:
        parent[u] = v
    return hops + 3


def afforest(graph: Graph, neighbor_rounds: int = 2) -> np.ndarray:
    """Component labels (min reachable root id per component).

    ``graph`` must be the undirected (symmetric) view.
    """
    rt = graph.runtime
    n = graph.nnodes
    parent = graph.add_node_data("cc_parent", np.int64, fill=0)
    parent[:] = np.arange(n)
    if n == 0:
        return parent.copy()
    indptr, indices = graph.csr.indptr, graph.csr.indices
    degrees = np.diff(indptr)

    # Phase 1: neighbor rounds — link each vertex with its r-th neighbor.
    for r in range(neighbor_rounds):
        rt.round()
        srcs = np.flatnonzero(degrees > r)
        links = parent.tolist()
        hops = 0
        for u, v in zip(srcs.tolist(), indices[indptr[srcs] + r].tolist()):
            hops += _link(links, u, v)
        parent[:] = links
        rt.do_all(
            OpEvent(kind="do_all", label="cc_neighbor_round",
                    items=len(srcs)),
            instr_per_item=2.0,
            extra_instr=hops * 2,
            streams=[rt.rand(parent.nbytes, hops + len(srcs), elem_bytes=8),
                     rt.strided(graph.csr.nbytes, len(srcs))],
        )

    _compress(rt, parent)

    # Phase 2: sample to find the giant intermediate component.
    rng = np.random.default_rng(0xAF)
    sample = rng.integers(0, n, min(SAMPLE_SIZE, n))
    roots = parent[parent[sample]]
    giant = np.bincount(roots, minlength=n).argmax()
    rt.do_all(
        OpEvent(kind="do_all", label="cc_sample", items=len(sample)),
        instr_per_item=4.0,
        streams=[rt.rand(parent.nbytes, 2 * len(sample), elem_bytes=8)],
    )

    # Phase 3: finish — only vertices outside the giant component process
    # their remaining edges (the fine-grained saving).
    rt.round()
    outside = np.flatnonzero(parent[parent] != giant)
    links, ptr, giant = parent.tolist(), indptr.tolist(), int(giant)
    hops = 0
    scanned = 0
    for u in outside.tolist():
        if _find(links, u) == giant:
            continue
        lo, hi = ptr[u] + neighbor_rounds, ptr[u + 1]
        scanned += max(0, hi - lo)
        for v in indices[lo:hi].tolist():
            hops += _link(links, u, v)
    parent[:] = links
    rt.do_all(
        OpEvent(kind="do_all", label="cc_finish",
                items=max(len(outside), 1)),
        instr_per_item=2.0,
        extra_instr=hops * 2 + scanned * 2,
        streams=[rt.rand(parent.nbytes, hops + scanned, elem_bytes=8),
                 rt.strided(graph.csr.nbytes, scanned)],
        weights=degrees[outside] + 1 if len(outside) else None,
    )

    _compress(rt, parent)
    return parent.copy()


def shiloach_vishkin(graph: Graph) -> np.ndarray:
    """The ls-sv variant: hook along every edge, then jump to fixpoint.

    The pointer jumping inside a round runs to convergence without global
    barriers (asynchronous short-circuiting), which is what lets ls-sv beat
    LAGraph's bounded FastSV on high-diameter graphs (§V-B, Figure 3c).
    """
    rt = graph.runtime
    n = graph.nnodes
    parent = graph.add_node_data("cc_parent_sv", np.int64, fill=0)
    parent[:] = np.arange(n)
    rows = graph.csr.row_ids()
    cols = graph.csr.indices.astype(np.int64)

    while True:
        rt.round()
        before = parent.copy()
        # Hook: every edge pulls the larger root toward the smaller.
        scatter_reduce(parent, before[rows], before[cols], "min")
        scatter_reduce(parent, before[cols], before[rows], "min")
        rt.do_all(
            OpEvent(kind="do_all", label="sv_hook", items=len(rows)),
            instr_per_item=4.0,
            streams=[rt.seq(graph.csr.nbytes, len(rows)),
                     rt.rand(parent.nbytes, 4 * len(rows), elem_bytes=8)],
        )
        # Unbounded pointer jumping (asynchronous, barrier-free slices).
        # Each vertex short-circuits until its parent is a root; with path
        # compression the charged work is the number of pointers that
        # actually move, amortized near-linear — not a full pass per wave.
        while True:
            pp = parent[parent]
            moved = int(np.count_nonzero(pp != parent))
            rt.for_each(
                OpEvent(kind="for_each", label="sv_jump",
                        items=max(moved, 1)),
                instr_per_item=2.0,
                streams=[rt.rand(parent.nbytes, 2 * max(moved, 1),
                                 elem_bytes=8)],
            )
            if moved == 0:
                break
            parent[:] = pp
        if np.array_equal(parent, before):
            break
    return parent.copy()


def _compress(rt, parent: np.ndarray) -> None:
    """Full pointer-jump compression to roots (vectorized)."""
    hops = 0
    while True:
        pp = parent[parent]
        hops += 1
        if np.array_equal(pp, parent):
            break
        parent[:] = pp
    rt.do_all(
        OpEvent(kind="do_all", label="cc_compress", items=len(parent)),
        instr_per_item=1.0 * hops,
        streams=[rt.rand(parent.nbytes, hops * len(parent), elem_bytes=8)],
    )
