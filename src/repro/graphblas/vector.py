"""GraphBLAS vectors.

Storage is canonical across backends — a dense value array plus a dense
presence mask — so numerical results are bit-identical between SuiteSparse
and GaloisBLAS (the paper's LAGraph programs produce the same answers on
both).  What *differs* per backend is the modeled representation
(``rep``): SuiteSparse stores vectors as 1-wide sparse matrices, while
GaloisBLAS chooses among an ordered map, an unordered list, and a dense
array (§III-B); the backends charge memory traffic according to that
choice.

A vector knows its ``nvals``: the count is cached in ``_nvals`` (``None`` =
not counted since the last write) and every mutator either updates it or
drops it, so the cost model's many ``nvals`` / ``nbytes_modeled()`` reads
per operation cost at most one scan of the presence bitmap.  Code that
writes ``_present`` directly (only :mod:`repro.graphblas.operations` does)
must go through :meth:`Vector._store` or reset ``_nvals`` itself.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import DimensionMismatch, IndexOutOfBounds, NoValue
from repro.graphblas.types import GrBType, type_of

#: Representation tags (GaloisBLAS's three, plus SuiteSparse's).
REP_DENSE_ARRAY = "dense_array"
REP_ORDERED_MAP = "ordered_map"
REP_UNORDERED_LIST = "unordered_list"
REP_SS_SPARSE = "ss_sparse"


class Vector:
    """A GraphBLAS vector of length ``size`` over one scalar type."""

    def __init__(self, backend, gtype, size: int, rep: Optional[str] = None,
                 label: str = "vector"):
        self.backend = backend
        self.type: GrBType = type_of(gtype)
        self.size = int(size)
        self.rep = rep or backend.default_vector_rep
        self.label = label
        self._values = np.zeros(self.size, dtype=self.type.dtype)
        self._present = np.zeros(self.size, dtype=bool)
        # Before the allocation charge: it reads nbytes_modeled().
        self._nvals: Optional[int] = 0
        self._allocation = backend.charge_vector_alloc(self)

    # ------------------------------------------------------------------
    # Element access (GrB_Vector_setElement / extractElement / removeElement)
    # ------------------------------------------------------------------
    def set_element(self, index: int, value) -> None:
        """Set one entry (GrB_Vector_setElement)."""
        if not 0 <= index < self.size:
            raise IndexOutOfBounds(f"index {index} out of range [0, {self.size})")
        self._values[index] = value
        if not self._present[index]:
            self._present[index] = True
            if self._nvals is not None:
                self._nvals += 1

    def extract_element(self, index: int):
        """Read one explicit entry; raises NoValue when absent."""
        if not 0 <= index < self.size:
            raise IndexOutOfBounds(f"index {index} out of range [0, {self.size})")
        if not self._present[index]:
            raise NoValue(f"no explicit entry at index {index}")
        return self._values[index].item()

    def remove_element(self, index: int) -> None:
        """Make one entry implicit (GrB_Vector_removeElement)."""
        if not 0 <= index < self.size:
            raise IndexOutOfBounds(f"index {index} out of range [0, {self.size})")
        if self._present[index]:
            self._present[index] = False
            if self._nvals is not None:
                self._nvals -= 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def nvals(self) -> int:
        """Number of explicit entries (GrB_Vector_nvals)."""
        nvals = self._nvals
        if nvals is None:
            nvals = self._nvals = int(np.count_nonzero(self._present))
        return nvals

    def indices(self) -> np.ndarray:
        """Sorted indices of explicit entries."""
        return np.flatnonzero(self._present)

    def values_at(self, indices: np.ndarray) -> np.ndarray:
        """Stored values at the given indices (no presence check)."""
        return self._values[indices]

    def to_pairs(self):
        """(indices, values) of explicit entries — the sparse view."""
        idx = self.indices()
        return idx, self._values[idx]

    def dense_values(self, fill=None) -> np.ndarray:
        """Dense copy with ``fill`` at non-explicit positions."""
        out = self._values.copy()
        if fill is not None:
            out[~self._present] = fill
        return out

    def present_mask(self) -> np.ndarray:
        """Copy of the presence bitmap."""
        return self._present.copy()

    def nbytes_modeled(self) -> int:
        """Modeled storage footprint under the current representation."""
        n = self.size
        nv = self.nvals
        itemsize = self.type.itemsize
        if self.rep == REP_DENSE_ARRAY:
            return n * itemsize
        if self.rep == REP_ORDERED_MAP:
            return nv * (itemsize + 8)
        if self.rep == REP_UNORDERED_LIST:
            return nv * (itemsize + 8) + 64
        # SuiteSparse stores a vector as an n x 1 sparse matrix.
        return nv * (itemsize + 8) + 16

    # ------------------------------------------------------------------
    # Whole-vector operations
    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Remove all entries (GrB_Vector_clear)."""
        self._present[:] = False
        self._nvals = 0

    def densify(self) -> None:
        """Make every position explicit, in place (absent -> 0)."""
        self._values[~self._present] = 0
        self._present[:] = True
        self._nvals = self.size

    def dup(self, label: Optional[str] = None) -> "Vector":
        """Deep copy (GrB_Vector_dup)."""
        out = Vector(self.backend, self.type, self.size, rep=self.rep,
                     label=label or f"{self.label}_dup")
        out._store(self._values.copy(), self._present.copy(), self._nvals)
        return out

    def build(self, indices, values) -> None:
        """Populate from (index, value) pairs (GrB_Vector_build)."""
        indices = np.asarray(indices, dtype=np.int64)
        if len(indices) and (indices.min() < 0 or indices.max() >= self.size):
            raise IndexOutOfBounds("build index out of range")
        vals = np.asarray(values)
        if np.ndim(vals) == 0:
            vals = np.full(len(indices), vals, dtype=self.type.dtype)
        if len(vals) != len(indices):
            raise DimensionMismatch("indices and values lengths differ")
        self.clear()
        self._values[indices] = vals.astype(self.type.dtype, copy=False)
        self._present[indices] = True
        self._nvals = None  # duplicates allowed: count on demand

    def free(self) -> None:
        """Release the modeled storage (GrB_free)."""
        self.backend.release(self._allocation)

    # Internal: overwrite storage wholesale (used by operations.py).
    def _store(self, values: np.ndarray, present: np.ndarray,
               nvals: Optional[int] = None) -> None:
        """``nvals`` is ``present``'s count when the caller already holds
        it (None: counted on the next read)."""
        if len(values) != self.size or len(present) != self.size:
            raise DimensionMismatch("store arrays must match vector size")
        self._values = values.astype(self.type.dtype, copy=False)
        self._present = present
        self._nvals = nvals

    def __repr__(self):
        return (f"Vector({self.label!r}, size={self.size}, nvals={self.nvals}, "
                f"{self.type!r}, rep={self.rep})")
