"""Lonestar k-truss: decremental supports, immediately-visible removals.

Both ktruss implementations remove under-supported edges until fixpoint, and
the k-truss is confluent (the fixpoint is independent of removal order), so
Lonestar and LAGraph compute identical trusses.  What differs — and what the
paper measures (§V-B "ktruss") — is the work per removal wave:

* LAGraph re-derives the support of **every** surviving edge each round with
  a full masked SpGEMM, materializing the support matrix C every time, and a
  removal only becomes visible at the next round's multiply (Jacobi);
* Lonestar computes supports **once**, then processes removals off a
  worklist: deleting edge (u, v) enumerates the triangles it participated in
  and *decrements* the supports of the other two edges of each — work
  proportional to the triangles destroyed, not to the surviving graph — and
  a removal is immediately visible to every other thread (Gauss-Seidel),
  which shortens the cascade (the paper's 1.6x round measurement).
"""

from __future__ import annotations

import numpy as np

from repro.engine.events import OpEvent
from repro.galois.graph import Graph
from repro.galois.loops import DEFAULT_TILE
from repro.sparse.join import dedup_bounded, row_pair_join
from repro.sparse.tricount import edge_supports, twin_positions


def ktruss(graph: Graph, k: int, max_rounds: int = 100000):
    """The k-truss of the undirected graph (``graph`` = symmetric view).

    Returns ``(alive, rounds)`` where ``alive`` marks surviving CSR entries
    and ``rounds`` counts removal waves after the initial support pass.
    """
    rt = graph.runtime
    csr = graph.csr
    needed = k - 2
    indices = csr.indices
    entry_rows = csr.row_ids()

    alive = np.ones(csr.nvals, dtype=bool)
    rt.charge_alloc(alive.nbytes, "ktruss:alive")
    twin = twin_positions(csr)
    rt.charge_alloc(twin.nbytes, "ktruss:twin")

    # Initial supports: one full intersection pass (one fused do_all).
    supports, work, row_work = edge_supports(csr, alive)
    rt.charge_alloc(supports.nbytes, "ktruss:supports")
    rt.do_all(
        OpEvent(kind="do_all", label="ktruss_supports", items=csr.nrows),
        instr_per_item=2.0,
        extra_instr=work * 3,
        streams=[rt.strided(csr.nbytes, work),
                 rt.seq(supports.nbytes, csr.nvals, elem_bytes=8)],
        weights=row_work + 1,
        tile_edges=DEFAULT_TILE,
    )

    # Removal cascade: a worklist of doomed entry positions (both
    # orientations resolve to the lower position to dedup).
    row_deg = csr.row_degrees()
    doomed = np.flatnonzero(alive & (supports < needed))
    doomed = dedup_bounded(np.minimum(doomed, twin[doomed]), csr.nvals)
    is_doomed = np.zeros(csr.nvals, dtype=bool)
    rounds = 0
    while len(doomed) and rounds < max_rounds:
        rounds += 1
        rt.round()
        # One batch per wave.  Removals are immediately visible
        # (Gauss-Seidel), so a triangle with several doomed edges is
        # destroyed once, by whichever of them is removed first — in
        # worklist order, its smallest doomed canonical edge.  That makes
        # the wave order-free: list, for every doomed edge (u, v), the
        # triangles alive *before* the wave, and credit each one only to
        # the smallest doomed edge among its three.
        u = entry_rows[doomed]
        wave_work = int(row_deg[u].sum())
        v = indices[doomed].astype(np.int64)
        # Gather the shorter row of each pair, probe the longer: the two
        # sides are treated alike below, and the model is charged
        # ``wave_work`` whichever side the kernel reads.
        swap = row_deg[v] > row_deg[u]
        res = row_pair_join(csr, np.where(swap, v, u),
                            csr, np.where(swap, u, v),
                            a_keep=alive, b_keep=alive)
        first = doomed[res.out_seg]
        is_doomed[doomed] = True
        credited = np.ones(len(first), dtype=bool)
        for other in (res.a_pos, res.b_pos):
            canon = np.minimum(other, twin[other])
            credited &= ~(is_doomed[canon] & (canon < first))
        is_doomed[doomed] = False
        alive[doomed] = False
        alive[twin[doomed]] = False
        # The other two edges of every destroyed triangle lose one support.
        hit = np.concatenate([res.a_pos[credited], res.b_pos[credited]])
        supports -= np.bincount(np.concatenate([hit, twin[hit]]),
                                minlength=csr.nvals)
        # One asynchronous wave: no global barrier between removals.
        rt.for_each(
            OpEvent(kind="for_each", label="ktruss_wave",
                    items=len(doomed)),
            instr_per_item=4.0,
            extra_instr=wave_work * 3,
            streams=[rt.strided(csr.nbytes, wave_work),
                     rt.rand(supports.nbytes, wave_work, elem_bytes=8)],
        )
        hit = hit[alive[hit] & (supports[hit] < needed)]
        doomed = dedup_bounded(np.minimum(hit, twin[hit]), csr.nvals)
    return alive, rounds
