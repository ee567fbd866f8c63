"""LAGraph single-source shortest paths: bulk-synchronous delta-stepping.

This follows the structure of LAGraph's delta-stepping "variant 12c" the
paper selected (§IV, [38]): distances are settled bucket by bucket
(``[i*delta, (i+1)*delta)``), and within a bucket the relaxation is a Jacobi
iteration — a masked ``vxm`` over the current bucket's *changed* vertices,
followed by an element-wise min merge, repeated until the bucket stops
changing.  Every inner iteration is several full GraphBLAS calls and hence
several loop nests with barriers; on high-diameter graphs the number of
inner iterations approaches the graph diameter, which is exactly why the
paper measures bulk-synchronous sssp >100x slower than asynchronous
Lonestar sssp on road networks (§V-B, Figure 3d).
"""

from __future__ import annotations

import numpy as np

import repro.graphblas as gb
from repro.engine.events import OpEvent
from repro.graphblas.ops import MIN_PLUS, binary, monoid

_MIN = binary("min")


def delta_stepping(backend, A: gb.Matrix, source: int, delta: int,
                   dist_type=None) -> gb.Vector:
    """Distances from ``source`` over the weighted matrix ``A``.

    ``dist_type`` defaults to INT64 for integer weights (the paper uses
    INT32 except on eukarya where it overflows; pass ``gb.INT32`` to
    reproduce the overflow-prone configuration).
    """
    n = A.nrows
    dtype = dist_type or gb.INT64
    inf = dtype.max_value()

    dist = gb.Vector(backend, dtype, n, label="sssp:dist")
    gb.assign(dist, inf)
    dist.set_element(source, 0)

    # The frontier of vertices whose distance changed in the last step.
    changed = gb.Vector(backend, dtype, n, label="sssp:changed")
    req = gb.Vector(backend, dtype, n, label="sssp:req")

    step = 0
    max_steps = 64 * n  # safety net; never reached on valid inputs
    while step < max_steps:
        bucket_hi = (step + 1) * delta
        d = dist.dense_values()
        # Inner Jacobi loop: relax inside the current bucket to fixpoint.
        # Seed the changed set with the bucket's unsettled vertices.
        active_idx = np.flatnonzero((d >= step * delta) & (d < bucket_hi))
        changed.build(active_idx, d[active_idx])
        while changed.nvals:
            backend.runtime.round()
            # Call 1: candidate distances from the changed set (min-plus).
            req.clear()
            gb.vxm(req, changed, A, MIN_PLUS)
            # Call 2: which candidates actually improve?  (compare pass)
            req_d = req.dense_values(fill=inf)
            improved = req_d < dist.dense_values()
            backend.emit(OpEvent(
                kind="ewise_mult", label="sssp_improved", items=req.nvals,
                out_nvals=req.nvals,
            ), out=req)
            # Call 3: merge into dist (eWiseAdd min).
            gb.eWiseAdd(dist, dist, req, monoid("min"))
            # Call 4: next changed set = improved vertices still in bucket.
            idx = np.flatnonzero(improved & (req_d < bucket_hi))
            changed.build(idx, req_d[idx])
            backend.emit(OpEvent(
                kind="assign", label="sssp_next_changed", items=len(idx),
                out_nvals=len(idx),
            ), out=changed)
        # Advance to the next non-empty bucket.
        d = dist.dense_values()
        unsettled = d[(d >= bucket_hi) & (d < inf)]
        if len(unsettled) == 0:
            break
        step = int(unsettled.min() // delta)
    return dist
