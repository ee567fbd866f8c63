"""LAGraph PageRank: the topology-driven variant and the residual variant.

Canonical semantics (shared with Lonestar so all variants agree, as the
paper arranged by modifying LAGraph's pr, §IV): run ``iters`` rounds of

    contribution_t(v) = alpha * y_t(v) / outdeg(v)        (pushed along edges)
    y_{t+1}(u) = sum over in-neighbors v of contribution_t(v)
    pr = (1-alpha)/n + sum_t y_t

with ``y_0 = (1-alpha)/n`` and no dangling redistribution (contributions of
sink vertices vanish, exactly like a push-style residual implementation).

Two implementations:

* :func:`pagerank_gb` — Table II's "gb": contributions are stored *in the
  edge data*: a diagonal matrix of scaled ranks is multiplied into A
  (materializing an |E|-sized contribution matrix every round) and column-
  reduced.  GaloisBLAS detects the diagonal operand and takes its scaling
  fast path; SuiteSparse runs a general SpGEMM.
* :func:`pagerank_gb_res` — §V-B's "gb-res": a residual vector replaces the
  edge-data contributions.  Per round the residual is iterated over twice —
  once to accumulate into pr, once to scale by the out-degrees — because the
  two updates are separate API calls (the fusion Lonestar gets for free).
"""

from __future__ import annotations

import numpy as np

import repro.graphblas as gb
from repro.engine.events import OpEvent
from repro.graphblas.ops import PLUS_FIRST, PLUS_TIMES, binary, monoid
from repro.sparse.csr import CSRMatrix

_PLUS = binary("plus")
_TIMES = binary("times")


def _out_degree_vector(backend, A: gb.Matrix) -> gb.Vector:
    """Float out-degrees (1 for sinks, so division is safe; a sink's
    contribution is annihilated later because it has no out-edges)."""
    d = gb.Vector(backend, gb.FP64, A.nrows, label="pr:outdeg")
    gb.reduce_to_vector(d, A, monoid("plus"))
    dd = d.dense_values(fill=0.0)
    dd[dd == 0] = 1.0
    d.build(np.arange(A.nrows), dd)
    return d


def pagerank_gb(backend, A: gb.Matrix, iters: int = 10,
                damping: float = 0.85) -> gb.Vector:
    """Topology-driven LAGraph pr (contributions materialized in edge data).

    ``A`` here is the *ones* adjacency (pattern); ranks flow src -> dst.
    """
    n = A.nrows
    base = (1.0 - damping) / n
    outdeg = _out_degree_vector(backend, A)
    deg_dense = outdeg.dense_values(fill=1.0)

    pr = gb.Vector(backend, gb.FP64, n, label="pr:rank")
    gb.assign(pr, base)
    y = pr.dup(label="pr:y")

    D = gb.Matrix(backend, gb.FP64, n, n, label="pr:diag")
    C = gb.Matrix(backend, gb.FP64, n, n, label="pr:contrib")
    # The diagonal's structure never changes: only its values do per round.
    diag_pattern = CSRMatrix(n, n, np.arange(n + 1, dtype=np.int64),
                             np.arange(n, dtype=np.int32))

    for _ in range(iters):
        backend.runtime.round()
        # Scaled ranks on the diagonal: D = diag(alpha * y / outdeg).
        scaled = damping * y.dense_values(fill=0.0) / deg_dense
        D.replace_csr(diag_pattern.with_values(scaled))
        backend.emit(OpEvent(
            kind="assign", label="pr_diag_build", items=n, out_nvals=n,
        ), out=D)
        # Contribution matrix: C = D x A — every edge gets its source's
        # contribution as its value (the "edge data" of the paper's gb).
        gb.mxm(C, D, A, PLUS_TIMES)
        # New y: column sums of C (reduce the transpose's rows).
        gb.reduce_to_vector(y, C, monoid("plus"),
                            desc=gb.Descriptor(transpose_a=True))
        y.densify()
        # Accumulate into pr.
        gb.eWiseAdd(pr, pr, y, monoid("plus"))
    return pr


def pagerank_gb_res(backend, A: gb.Matrix, iters: int = 10,
                    damping: float = 0.85) -> gb.Vector:
    """Residual-based pr matching Lonestar's computation (§V-B "gb-res")."""
    n = A.nrows
    base = (1.0 - damping) / n
    outdeg = _out_degree_vector(backend, A)

    pr = gb.Vector(backend, gb.FP64, n, label="pr:rank")
    gb.assign(pr, base)
    res = pr.dup(label="pr:residual")

    contrib = gb.Vector(backend, gb.FP64, n, label="pr:contrib")
    for it in range(iters):
        backend.runtime.round()
        if it > 0:
            # Call 1: pr += res  (first pass over the residual vector).
            gb.eWiseAdd(pr, pr, res, monoid("plus"))
        # Call 2: contrib = alpha * res / outdeg  (second pass; the
        # multiply-by-outdegree the paper counts as a separate call).
        gb.eWiseMult(contrib, res, outdeg, binary("div"))
        gb.apply(contrib, binary("times").bind_first(damping), contrib)
        # Call 3: res' = contrib' x A (push contributions along edges).
        gb.vxm(res, contrib, A, PLUS_FIRST)
        # Give implicit zeros explicit entries (keeps iteration shapes fixed).
        res.densify()
    gb.eWiseAdd(pr, pr, res, monoid("plus"))
    return pr

