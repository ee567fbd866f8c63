"""LAGraph breadth-first search — the paper's Algorithm 2.

A round-based, data-driven, push-style bfs: frontier vertices propagate new
levels to their out-neighbors each round.  Each round is **three** GraphBLAS
calls (assign, nvals check, vxm), i.e. three passes over vertex-sized data
where the Lonestar version (Algorithm 1) fuses everything into one loop —
the instruction/memory gap of Table IV.
"""

from __future__ import annotations

import numpy as np

import repro.graphblas as gb
from repro.graphblas.descriptor import REPLACE_COMP
from repro.graphblas.ops import LOR_LAND


def bfs(backend, A: gb.Matrix, source: int) -> gb.Vector:
    """Levels from ``source``: source gets 1, unreached vertices get 0.

    (LAGraph's basic variant initializes distances to 0 via GrB_assign and
    marks visited vertices with level >= 1, exactly as Algorithm 2 does.)
    """
    n = A.nrows
    dist = gb.Vector(backend, gb.INT32, n, label="bfs:dist")
    frontier = gb.Vector(backend, gb.BOOL, n,
                         rep=_frontier_rep(backend, n), label="bfs:frontier")

    # dist = 0 everywhere (make the vector dense) — Algorithm 2 line 6.
    gb.assign(dist, 0)
    # frontier = {source} — line 8.
    frontier.set_element(source, True)
    level = 1

    while True:
        backend.runtime.round()
        # Pass 1: assign the current level to frontier vertices (lines 11-12).
        gb.assign(dist, level, mask=frontier)
        # Pass 2: emptiness check (lines 13-16).
        if frontier.nvals == 0:
            break
        level += 1
        # Pass 3: next frontier = frontier x A under the complement of the
        # visited set (lines 17-19); visited vertices have dist != 0.
        gb.vxm(frontier, frontier, A, LOR_LAND, mask=dist,
               desc=REPLACE_COMP)
        if level > n + 1:
            break  # safety net; cannot trigger on a correct graph
    return dist


def _frontier_rep(backend, n: int):
    """GaloisBLAS picks a sparse rep for the frontier (§III-B); the distance
    vector stays a dense array on both backends."""
    pick = getattr(backend, "pick_rep", None)
    if pick is None:
        return None
    return pick(size=n, expected_nvals=n // 16)


def bfs_parent(backend, A: gb.Matrix, source: int) -> gb.Vector:
    """Parent BFS (LAGraph's second output): ``parent[v]`` is v's
    predecessor on some shortest unweighted path from ``source``.

    The frontier carries *vertex ids* instead of levels, and the vxm uses
    the MIN_FIRST semiring so each newly reached vertex adopts the smallest
    frontier id among its predecessors — the deterministic tie-break that
    keeps all three stacks' answers comparable.  The source is its own
    parent; unreachable vertices have no entry.
    """
    import numpy as np

    from repro.graphblas.ops import MIN_FIRST

    n = A.nrows
    parent = gb.Vector(backend, gb.INT64, n, label="bfs:parent")
    frontier = gb.Vector(backend, gb.INT64, n,
                         rep=_frontier_rep(backend, n),
                         label="bfs:id_frontier")

    parent.set_element(source, source)
    frontier.set_element(source, source)

    while frontier.nvals:
        backend.runtime.round()
        # Candidates adopt the minimum frontier id among in-neighbors,
        # excluding already-parented vertices (structural complement mask).
        gb.vxm(frontier, frontier, A, MIN_FIRST, mask=parent,
               desc=gb.Descriptor(mask_comp=True, mask_structure=True,
                                  replace=True))
        if frontier.nvals == 0:
            break
        # Record the parents (merge; existing entries never overwritten
        # because the mask already excluded parented vertices).
        gb.assign(parent, frontier, accum=gb.binary("min"))
        # The new frontier pushes its own ids next round.
        idx, _vals = frontier.to_pairs()
        frontier.build(idx, idx)
    return parent
