"""Systems under test: SS, GB and LS bound to a fresh simulated machine.

One :class:`SystemInstance` corresponds to one process run in the paper's
methodology: it owns a fresh :class:`~repro.perf.Machine` configured for the
dataset (byte/time scaling, DRAM capacity, the 2 h timeout) and the loaded
graph objects, and dispatches the six applications with the paper's §IV
defaults.

The three stacks are *registered* with :mod:`repro.engine.registry` below —
each with its API family, capability flags and allocator/stack factories —
and ``SYSTEMS``/``APPLICATIONS`` are derived from those registrations.
``make_system``/``SystemInstance`` resolve codes through the registry, so
an unknown code raises with a did-you-mean suggestion list, and adding a
fourth system is one more ``register_system`` call (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.engine.registry import (
    Capabilities,
    SystemSpec,
    application_names,
    get_application,
    get_system,
    register_application,
    register_system,
    system_codes,
)
from repro.galois.graph import Graph
from repro.galoisblas import GALOIS_PREALLOC_BYTES, GaloisBLASBackend
from repro.graphs.datasets import Dataset, get_dataset
from repro.perf.allocator import TrackingAllocator
from repro.perf.machine import DRAM_CAPACITY_BYTES, Machine
from repro.runtime.galois_rt import GaloisRuntime
from repro.suitesparse import SS_ALLOC_SLACK, SuiteSparseBackend

import repro.graphblas as gb
from repro import lagraph, lonestar

#: The 2-hour run timeout (§IV), in paper-scale seconds.
TIMEOUT_SECONDS = 2 * 3600.0


# ----------------------------------------------------------------------
# Registrations (the paper's three stacks, §III)
# ----------------------------------------------------------------------

def _suitesparse_allocator(scale: float) -> TrackingAllocator:
    return TrackingAllocator(
        capacity_bytes=DRAM_CAPACITY_BYTES / scale,
        slack_factor=SS_ALLOC_SLACK,
        name="suitesparse",
    )


def _galois_allocator(scale: float) -> TrackingAllocator:
    return TrackingAllocator(
        capacity_bytes=DRAM_CAPACITY_BYTES / scale,
        prealloc_bytes=int(GALOIS_PREALLOC_BYTES / scale),
        name="galois",
    )


def _suitesparse_stack(machine: Machine):
    backend = SuiteSparseBackend(machine)
    return backend, backend.runtime


def _galoisblas_stack(machine: Machine):
    backend = GaloisBLASBackend(machine)
    return backend, backend.runtime


def _lonestar_stack(machine: Machine):
    return None, GaloisRuntime(machine)


register_system(SystemSpec(
    code="SS",
    description="LAGraph on SuiteSparse:GraphBLAS (OpenMP)",
    api="lagraph",
    capabilities=Capabilities(masks=True),
    make_allocator=_suitesparse_allocator,
    make_stack=_suitesparse_stack,
))
register_system(SystemSpec(
    code="GB",
    description="LAGraph on GaloisBLAS (Galois runtime)",
    api="lagraph",
    capabilities=Capabilities(masks=True, diag_fast_path=True,
                              huge_pages=True, work_stealing=True),
    make_allocator=_galois_allocator,
    make_stack=_galoisblas_stack,
))
register_system(SystemSpec(
    code="LS",
    description="Lonestar on Galois",
    api="lonestar",
    capabilities=Capabilities(fusion=True, async_scheduling=True,
                              priority_scheduling=True, huge_pages=True,
                              work_stealing=True),
    make_allocator=_galois_allocator,
    make_stack=_lonestar_stack,
))

register_application("bfs", "breadth-first search (Algorithm 1/2)")
register_application("cc", "connected components")
register_application("ktruss", "k-truss decomposition")
register_application("pr", "PageRank")
register_application("sssp", "single-source shortest paths")
register_application("tc", "triangle counting")

#: Paper labels for the three stacks (§V), derived from the registry.
SYSTEMS = system_codes()

#: The six applications (§IV), derived from the registry.
APPLICATIONS = application_names()


@dataclass
class System:
    """A stack identity: how to build machines and run applications."""

    code: str
    description: str

    def instantiate(self, dataset: Dataset,
                    timeout: Optional[float] = TIMEOUT_SECONDS
                    ) -> "SystemInstance":
        """Bind this stack to a dataset on a fresh simulated machine."""
        return SystemInstance(self.code, dataset, timeout=timeout)


def make_system(code: str) -> System:
    """Look up a registered system by its SS/GB/LS code.

    Unknown codes raise :class:`repro.errors.InvalidValue` with the known
    codes and close-match suggestions.
    """
    spec = get_system(code)
    return System(spec.code, spec.description)


class SystemInstance:
    """One (system, dataset) pairing with a fresh machine, ready to run."""

    def __init__(self, code: str, dataset: Dataset,
                 timeout: Optional[float] = TIMEOUT_SECONDS):
        spec = get_system(code)
        self.spec = spec
        self.code = spec.code
        self.api = spec.api
        self.capabilities = spec.capabilities
        self.dataset = dataset
        scale = dataset.scale
        # timeout compares paper-scale simulated seconds (time_scale applies
        # inside Machine.simulated_seconds, so the raw value is passed).
        self.machine = Machine(
            byte_scale=scale,
            time_scale=scale,
            timeout_seconds=timeout,
            allocator=spec.make_allocator(scale),
        )
        self.backend, self.runtime = spec.make_stack(self.machine)
        self._loaded = {}

    # ------------------------------------------------------------------
    # Graph loading (charged to MRSS; measurement reset afterwards)
    # ------------------------------------------------------------------
    def _pattern_matrix(self, csr, label):
        return gb.Matrix.from_csr(self.backend, gb.BOOL, csr, label=label)

    def load_directed(self):
        """The unweighted directed graph (bfs/pr load no edge data)."""
        if "directed" not in self._loaded:
            csr, _weights = self.dataset.build()
            pattern = csr.with_values(None)
            if self.api == "lonestar":
                self._loaded["directed"] = Graph(self.runtime, pattern, None,
                                                 name=self.dataset.name)
            else:
                self._loaded["directed"] = self._pattern_matrix(pattern, "A")
        return self._loaded["directed"]

    def load_weighted(self):
        """The weighted directed graph (sssp input)."""
        if "weighted" not in self._loaded:
            csr, weights = self.dataset.build()
            dtype = np.int64
            if self.api == "lonestar":
                self._loaded["weighted"] = Graph(
                    self.runtime, csr, weights.astype(dtype),
                    name=f"{self.dataset.name}_w")
            else:
                self._loaded["weighted"] = gb.Matrix.from_csr(
                    self.backend, gb.INT64,
                    csr.with_values(weights.astype(dtype)), label="Aw")
        return self._loaded["weighted"]

    def load_symmetric(self):
        """The undirected pattern view (cc/tc/ktruss input)."""
        if "symmetric" not in self._loaded:
            sym, _ = self.dataset.build_symmetric()
            pattern = sym.with_values(None)
            if self.api == "lonestar":
                self._loaded["symmetric"] = Graph(self.runtime, pattern, None,
                                                  name=f"{self.dataset.name}_sym")
            else:
                self._loaded["symmetric"] = self._pattern_matrix(pattern,
                                                                 "Asym")
        return self._loaded["symmetric"]

    # ------------------------------------------------------------------
    # Applications (paper §IV defaults)
    # ------------------------------------------------------------------
    def run(self, app: str):
        """Run one application; returns an app-specific summary value."""
        get_application(app)
        return getattr(self, f"_run_{app}")()

    def _run_bfs(self):
        source = self.dataset.source_vertex()
        obj = self.load_directed()
        self.machine.reset_measurement()
        if self.api == "lonestar":
            dist = lonestar.bfs(obj, source)
            return _checksum(dist)
        dist = lagraph.bfs(self.backend, obj, source)
        return _checksum(dist.dense_values())

    def _run_cc(self):
        obj = self.load_symmetric()
        self.machine.reset_measurement()
        if self.api == "lonestar":
            labels = lonestar.afforest(obj)
        else:
            labels = lagraph.fastsv(self.backend, obj).dense_values()
        return int(len(np.unique(labels)))

    def _run_ktruss(self):
        k = self.dataset.ktruss_k
        obj = self.load_symmetric()
        self.machine.reset_measurement()
        if self.api == "lonestar":
            alive, _rounds = lonestar.ktruss(obj, k)
            return int(alive.sum())
        S, _rounds = lagraph.ktruss(self.backend, obj, k)
        return int(S.nvals)

    def _run_pr(self):
        obj = self.load_directed()
        self.machine.reset_measurement()
        if self.api == "lonestar":
            ranks = lonestar.pagerank(obj, iters=10, layout="aos")
        elif self.capabilities.diag_fast_path:
            # GaloisBLAS's best variant: the topology-driven pr rides the
            # diagonal fast path (Table II's gb).
            ranks = lagraph.pagerank_gb(self.backend, obj,
                                        iters=10).dense_values()
        else:
            # SuiteSparse's best variant avoids the per-round SpGEMM.
            ranks = lagraph.pagerank_gb_res(self.backend, obj,
                                            iters=10).dense_values()
        return float(np.round(ranks.sum(), 10))

    def _run_sssp(self):
        source = self.dataset.source_vertex()
        delta = self.dataset.sssp_delta
        obj = self.load_weighted()
        self.machine.reset_measurement()
        if self.api == "lonestar":
            dist = lonestar.delta_stepping(obj, source, delta, tiled=True)
            return _checksum(_finite(dist))
        dist = lagraph.delta_stepping(self.backend, obj, source, delta)
        return _checksum(_finite(dist.dense_values()))

    def _run_tc(self):
        obj = self.load_symmetric()
        self.machine.reset_measurement()
        if self.api == "lonestar":
            return int(lonestar.triangle_count(obj))
        return int(lagraph.triangle_count(self.backend, obj, "gb"))


def _finite(dist: np.ndarray) -> np.ndarray:
    inf = np.iinfo(dist.dtype).max if dist.dtype.kind in "iu" else np.inf
    return np.where(dist == inf, -1, dist)


def _checksum(values: np.ndarray) -> int:
    """Order-independent content checksum for cross-system comparison."""
    arr = np.asarray(values, dtype=np.int64)
    return int(arr.sum() % (1 << 61)) ^ int((arr * arr % 1000003).sum()
                                            % (1 << 61))
