"""On-disk graph artifact store: build once, mmap many.

Every worker process used to rebuild one monolithic in-memory CSR per
graph.  This module turns a built graph into an immutable on-disk
**artifact** — versioned, checksummed, mmap-loadable ``.npy`` shard files —
that any number of processes open read-only through ``np.load(...,
mmap_mode="r")``, sharing one page-cache copy instead of N private heaps.

Layout (one artifact per dataset × variant × shard geometry)::

    <REPRO_ARTIFACT_DIR>/
      <dataset>/
        <variant>-r<shard_rows>/        # "dir" or "sym" variant
          manifest.json                 # spec, seed, geometry, checksums
          shard-0000.indptr.npy         # local indptr (int64, rows+1)
          shard-0000.indices.npy        # global column ids (int32)
          shard-0000.values.npy         # weights/values (optional)
          shard-0001.indptr.npy ...

The manifest is keyed by **generator spec + seed + shard geometry**: a
loaded artifact whose recorded spec differs from the dataset's current one
is a miss (stale), and a different ``REPRO_SHARD_ROWS`` resolves to a
sibling directory, so geometries coexist instead of clobbering each other.

**Atomic publish protocol.**  A publisher writes everything into a
``.tmp-*`` sibling directory, fsyncs every file and the directory, then
``os.rename``\\ s it onto the final path.  Rename is atomic on POSIX, and
renaming onto an existing directory fails — so when several workers race
to publish the same graph, exactly one rename wins; the losers detect the
winner's manifest, discard their temp dir, and mmap the winner's files.
Readers therefore never observe a half-written artifact.

**Corruption discipline.**  :meth:`ArtifactStore.load` runs cheap
structural validation (manifest schema, file sizes, npy headers, indptr
invariants — O(rows), never O(nnz), so it does not fault in payload
pages); :meth:`ArtifactStore.verify` streams full SHA-256 checksums.
Either failure raises :class:`ArtifactCorrupt`, which the dataset layer
answers by discarding the artifact and rebuilding — a truncated or
bit-flipped shard costs a rebuild, never a crash and never a wrong answer.

The store only changes where graph bytes live.  What any kernel computes,
and what the machine model charges, is byte-identical with the store on,
off (``REPRO_ARTIFACT_DIR`` unset), or resharded — CI proves it on the
study grid.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import uuid
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import errors
from repro.sparse.blocked import (
    BlockedCSR,
    CSRShard,
    row_slice,
    shard_bounds,
    shard_rows_from_env,
)
from repro.sparse.csr import CSRMatrix, INDEX_DTYPE, PTR_DTYPE

#: Manifest schema version; bump on any incompatible layout change.
STORE_VERSION = 1

MANIFEST_NAME = "manifest.json"

#: Module-wide observability counters (reset per process; tests and the
#: prewarm accounting read them).
STATS: Dict[str, int] = {
    "loads": 0, "publishes": 0, "lost_races": 0, "rebuilds": 0,
}


class ArtifactError(errors.ReproError):
    """Base class for artifact-store failures."""


class ArtifactMiss(ArtifactError):
    """No artifact published for this (dataset, variant, geometry) key."""


class ArtifactCorrupt(ArtifactError):
    """An artifact exists but fails validation (truncated file, checksum
    mismatch, structural invariant violation).  The dataset layer responds
    by discarding and rebuilding."""


def enabled(environ: Optional[dict] = None) -> bool:
    """Whether dataset resolution should go through the store.

    On exactly when ``REPRO_ARTIFACT_DIR`` points at a directory.
    """
    env = os.environ if environ is None else environ
    return bool(env.get("REPRO_ARTIFACT_DIR", "").strip())


def store_from_env(environ: Optional[dict] = None) -> Optional["ArtifactStore"]:
    """The environment-configured store, or None when disabled."""
    env = os.environ if environ is None else environ
    if not enabled(env):
        return None
    return ArtifactStore(env["REPRO_ARTIFACT_DIR"].strip(),
                         shard_rows=shard_rows_from_env(env))


def _sha256(path: Path, chunk: int = 1 << 20) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while True:
            block = fh.read(chunk)
            if not block:
                break
            digest.update(block)
    return digest.hexdigest()


def _fsync_file(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _fsync_dir(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _save_array(directory: Path, name: str, array: np.ndarray) -> dict:
    """Write one ``.npy`` payload file, fsync it, return its manifest row."""
    path = directory / name
    np.save(path, array)
    _fsync_file(path)
    return {
        "file": name,
        "bytes": path.stat().st_size,
        "sha256": _sha256(path),
        "dtype": str(array.dtype),
        "shape": list(array.shape),
    }


class ArtifactStore:
    """A directory of published graph artifacts (see module docstring)."""

    def __init__(self, root, shard_rows: Optional[int] = None):
        self.root = Path(root)
        self.shard_rows = shard_rows_from_env() if shard_rows is None \
            else int(shard_rows)
        if self.shard_rows < 1:
            raise errors.InvalidValue(
                f"shard_rows must be >= 1; got {self.shard_rows}")

    # ------------------------------------------------------------------
    # Paths and keys
    # ------------------------------------------------------------------
    def path(self, name: str, variant: str) -> Path:
        """The artifact directory for (dataset, variant, this geometry)."""
        if not name or "/" in name or name.startswith("."):
            raise errors.InvalidValue(f"bad dataset name {name!r}")
        if variant not in ("dir", "sym"):
            raise errors.InvalidValue(
                f"unknown variant {variant!r} (want 'dir' or 'sym')")
        return self.root / name / f"{variant}-r{self.shard_rows}"

    def has(self, name: str, variant: str) -> bool:
        """Whether a published (manifest-bearing) entry exists."""
        return (self.path(name, variant) / MANIFEST_NAME).is_file()

    # ------------------------------------------------------------------
    # Publish
    # ------------------------------------------------------------------
    def publish(self, name: str, variant: str, csr: CSRMatrix,
                weights: Optional[np.ndarray] = None,
                spec: str = "") -> Path:
        """Shard, write, fsync and atomically publish one built graph.

        ``csr.values`` (when present) are stored as the shards' value
        files; otherwise ``weights`` (entry-aligned, e.g. the separate
        edge-weight array of a pattern graph) takes that slot, recorded in
        the manifest as ``values_role: "weights"``.  Exactly one of many
        racing publishers wins the rename; the rest discard their temp
        dirs and return the winner's path.
        """
        final = self.path(name, variant)
        if csr.values is not None and weights is not None:
            raise errors.InvalidValue(
                "publish wants stored values or separate weights, not both")
        payload = csr.values if csr.values is not None else weights
        values_role = ("values" if csr.values is not None
                       else "weights" if weights is not None else "none")
        if payload is not None and len(payload) != csr.nvals:
            raise errors.DimensionMismatch(
                f"payload length {len(payload)} != nvals {csr.nvals}")

        self.root.mkdir(parents=True, exist_ok=True)
        final.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.root / (f".tmp-{name}-{variant}-{os.getpid()}-"
                           f"{uuid.uuid4().hex[:8]}")
        tmp.mkdir()
        try:
            shards_meta: List[dict] = []
            for k, (lo, hi) in enumerate(
                    shard_bounds(csr.nrows, self.shard_rows)):
                local = row_slice(csr, lo, hi)
                degrees = local.row_degrees()
                prefix = f"shard-{k:04d}"
                files = {
                    "indptr": _save_array(
                        tmp, f"{prefix}.indptr.npy",
                        np.ascontiguousarray(local.indptr,
                                             dtype=PTR_DTYPE)),
                    "indices": _save_array(
                        tmp, f"{prefix}.indices.npy",
                        np.ascontiguousarray(local.indices,
                                             dtype=INDEX_DTYPE)),
                }
                if payload is not None:
                    p_lo, p_hi = int(csr.indptr[lo]), int(csr.indptr[hi])
                    files["values"] = _save_array(
                        tmp, f"{prefix}.values.npy",
                        np.ascontiguousarray(payload[p_lo:p_hi]))
                shards_meta.append({
                    "rows": [lo, hi],
                    "nnz": int(local.nvals),
                    "degree_min": int(degrees.min()) if len(degrees) else 0,
                    "degree_max": int(degrees.max()) if len(degrees) else 0,
                    "files": files,
                })
            manifest = {
                "store_version": STORE_VERSION,
                "name": name,
                "variant": variant,
                "spec": spec,
                "shard_rows": self.shard_rows,
                "nrows": csr.nrows,
                "ncols": csr.ncols,
                "nnz": csr.nvals,
                "values_role": values_role,
                "shards": shards_meta,
            }
            manifest_path = tmp / MANIFEST_NAME
            manifest_path.write_text(
                json.dumps(manifest, indent=1, sort_keys=True))
            _fsync_file(manifest_path)
            _fsync_dir(tmp)
            try:
                os.rename(tmp, final)
            except OSError:
                # Renaming onto an existing directory fails: someone else
                # won the publish race (or the artifact already existed).
                # Their files are as good as ours — same deterministic
                # build — so discard ours and use theirs.
                if (final / MANIFEST_NAME).is_file():
                    STATS["lost_races"] += 1
                    return final
                raise
            _fsync_dir(final.parent)
            STATS["publishes"] += 1
            return final
        finally:
            if tmp.exists():
                shutil.rmtree(tmp, ignore_errors=True)

    # ------------------------------------------------------------------
    # Load
    # ------------------------------------------------------------------
    def read_manifest(self, name: str, variant: str) -> dict:
        """Parse and schema-check an artifact's manifest."""
        path = self.path(name, variant) / MANIFEST_NAME
        if not path.is_file():
            raise ArtifactMiss(
                f"no artifact for {name}/{variant} (r{self.shard_rows}) "
                f"under {self.root}")
        try:
            manifest = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ArtifactCorrupt(
                f"unreadable manifest {path}: {exc}") from None
        for key in ("store_version", "shards", "nrows", "ncols", "nnz",
                    "shard_rows", "values_role", "spec"):
            if key not in manifest:
                raise ArtifactCorrupt(f"manifest {path} lacks {key!r}")
        if manifest["store_version"] != STORE_VERSION:
            raise ArtifactMiss(
                f"artifact {name}/{variant} has store version "
                f"{manifest['store_version']}, this build wants "
                f"{STORE_VERSION}")
        return manifest

    def load(self, name: str, variant: str,
             spec: Optional[str] = None,
             ) -> Tuple[BlockedCSR, Optional[np.ndarray]]:
        """Open an artifact as a lazily mmap-loaded :class:`BlockedCSR`.

        Returns ``(blocked, weights)``: for a ``values_role == "weights"``
        artifact the per-shard value files come back as one entry-aligned
        weights array (mmap for a single shard, concatenated otherwise)
        and the shards themselves are pattern-only; for ``"values"`` the
        values live inside the shard CSRs.  ``spec`` (when given) must
        match the manifest's — a mismatch is a miss, i.e. the artifact is
        stale for the current generator/seed.

        Validation here is structural and O(rows): file sizes against the
        manifest, npy headers, indptr monotonicity/consistency.  Payload
        bytes are only checksummed by :meth:`verify`, so loading never
        faults the whole graph into memory.
        """
        manifest = self.read_manifest(name, variant)
        if spec is not None and manifest["spec"] != spec:
            raise ArtifactMiss(
                f"artifact {name}/{variant} was built from spec "
                f"{manifest['spec']!r}, current spec is {spec!r}")
        directory = self.path(name, variant)
        values_role = manifest["values_role"]
        ncols = int(manifest["ncols"])

        shards: List[CSRShard] = []
        weight_parts: List[np.ndarray] = []
        for meta in manifest["shards"]:
            lo, hi = (int(meta["rows"][0]), int(meta["rows"][1]))
            nnz = int(meta["nnz"])
            files = meta["files"]
            for role, row in files.items():
                fpath = directory / row["file"]
                if not fpath.is_file():
                    raise ArtifactCorrupt(
                        f"{name}/{variant}: missing shard file "
                        f"{row['file']}")
                actual = fpath.stat().st_size
                if actual != row["bytes"]:
                    raise ArtifactCorrupt(
                        f"{name}/{variant}: {row['file']} is {actual} "
                        f"bytes, manifest says {row['bytes']} (truncated "
                        "or overwritten)")

            indptr = self._mmap(directory, files["indptr"], PTR_DTYPE,
                                name, variant)
            if len(indptr) != hi - lo + 1:
                raise ArtifactCorrupt(
                    f"{name}/{variant}: shard [{lo}, {hi}) indptr has "
                    f"{len(indptr)} entries, want {hi - lo + 1}")
            if len(indptr) and (int(indptr[0]) != 0
                                or int(indptr[-1]) != nnz
                                or bool(np.any(np.diff(indptr) < 0))):
                raise ArtifactCorrupt(
                    f"{name}/{variant}: shard [{lo}, {hi}) indptr fails "
                    "structural validation (non-monotone or wrong span)")

            attach_values = values_role == "values"
            shards.append(CSRShard(
                lo, hi,
                loader=self._shard_loader(directory, files, indptr, ncols,
                                          attach_values, name, variant),
                nnz=nnz,
                degree_min=int(meta["degree_min"]),
                degree_max=int(meta["degree_max"])))
            if values_role == "weights":
                weight_parts.append(self._mmap(
                    directory, files["values"], None, name, variant))

        blocked = BlockedCSR(int(manifest["nrows"]), ncols, shards)
        if blocked.nvals != int(manifest["nnz"]):
            raise ArtifactCorrupt(
                f"{name}/{variant}: shard nnz totals {blocked.nvals}, "
                f"manifest says {manifest['nnz']}")
        weights = None
        if values_role == "weights":
            if len(weight_parts) == 1:
                weights = weight_parts[0]
            else:
                # The concatenation is a fresh buffer; pin it read-only so
                # the whole loaded artifact is immutable either way.
                weights = np.concatenate(weight_parts)
                weights.setflags(write=False)
            if len(weights) != blocked.nvals:
                raise ArtifactCorrupt(
                    f"{name}/{variant}: weights cover {len(weights)} "
                    f"entries, matrix has {blocked.nvals}")
        STATS["loads"] += 1
        return blocked, weights

    def _mmap(self, directory: Path, row: dict, expect_dtype,
              name: str, variant: str) -> np.ndarray:
        path = directory / row["file"]
        try:
            array = np.load(path, mmap_mode="r", allow_pickle=False)
        except (OSError, ValueError) as exc:
            raise ArtifactCorrupt(
                f"{name}/{variant}: cannot mmap {row['file']}: "
                f"{exc}") from None
        if str(array.dtype) != row["dtype"] or (
                expect_dtype is not None
                and array.dtype != np.dtype(expect_dtype)):
            raise ArtifactCorrupt(
                f"{name}/{variant}: {row['file']} has dtype "
                f"{array.dtype}, manifest says {row['dtype']}")
        return array

    def _shard_loader(self, directory: Path, files: dict,
                      indptr: np.ndarray, ncols: int, attach_values: bool,
                      name: str, variant: str):
        def load() -> CSRMatrix:
            indices = self._mmap(directory, files["indices"], INDEX_DTYPE,
                                 name, variant)
            values = None
            if attach_values:
                values = self._mmap(directory, files["values"], None,
                                    name, variant)
            return CSRMatrix(len(indptr) - 1, ncols, indptr, indices,
                             values)

        return load

    # ------------------------------------------------------------------
    # Inventory, verification, gc
    # ------------------------------------------------------------------
    def entries(self) -> List[dict]:
        """Every valid manifest in the store (any geometry), sorted."""
        rows = []
        if not self.root.is_dir():
            return rows
        for manifest_path in sorted(self.root.glob(
                "*/*/" + MANIFEST_NAME)):
            try:
                manifest = json.loads(manifest_path.read_text())
            except (OSError, json.JSONDecodeError):
                continue
            manifest["_path"] = str(manifest_path.parent)
            rows.append(manifest)
        return rows

    def verify(self, name: Optional[str] = None,
               variant: Optional[str] = None) -> List[str]:
        """Full-checksum verification; returns human-readable problems.

        Streams SHA-256 over every payload file of every (matching)
        artifact and re-runs the structural load validation.  An empty
        list means the store is sound.
        """
        problems = []
        checked = 0
        for manifest in self.entries():
            if name is not None and manifest.get("name") != name:
                continue
            if variant is not None and manifest.get("variant") != variant:
                continue
            directory = Path(manifest["_path"])
            label = f"{manifest.get('name')}/{directory.name}"
            for meta in manifest.get("shards", ()):
                for role, row in meta.get("files", {}).items():
                    fpath = directory / row["file"]
                    if not fpath.is_file():
                        problems.append(f"{label}: missing {row['file']}")
                        continue
                    if fpath.stat().st_size != row["bytes"]:
                        problems.append(
                            f"{label}: {row['file']} size "
                            f"{fpath.stat().st_size} != manifest "
                            f"{row['bytes']}")
                        continue
                    digest = _sha256(fpath)
                    if digest != row["sha256"]:
                        problems.append(
                            f"{label}: {row['file']} checksum mismatch "
                            f"({digest[:12]} != {row['sha256'][:12]})")
            checked += 1
            # Structural pass with the artifact's own geometry.
            try:
                sibling = ArtifactStore(
                    self.root, shard_rows=int(manifest["shard_rows"]))
                sibling.load(manifest["name"], manifest["variant"])
            except ArtifactError as exc:
                problems.append(f"{label}: {exc}")
        if name is not None and checked == 0:
            problems.append(f"{name}: no artifact found")
        return problems

    def discard(self, name: str, variant: str) -> bool:
        """Atomically retire one artifact (rename away, then delete)."""
        directory = self.path(name, variant)
        if not directory.exists():
            return False
        trash = self.root / f".trash-{uuid.uuid4().hex[:8]}"
        try:
            os.rename(directory, trash)
        except OSError:
            return False
        shutil.rmtree(trash, ignore_errors=True)
        return True

    def gc(self, known_names: Optional[List[str]] = None,
           dry_run: bool = False) -> List[str]:
        """Sweep temp/trash debris, corrupt artifacts and (optionally)
        artifacts for datasets not in ``known_names``.  Returns the paths
        removed (or that would be, under ``dry_run``)."""
        removed = []
        if not self.root.is_dir():
            return removed
        for debris in sorted(self.root.glob(".tmp-*")) + sorted(
                self.root.glob(".trash-*")):
            removed.append(str(debris))
            if not dry_run:
                shutil.rmtree(debris, ignore_errors=True)
        for dataset_dir in sorted(p for p in self.root.iterdir()
                                  if p.is_dir()
                                  and not p.name.startswith(".")):
            if known_names is not None and \
                    dataset_dir.name not in known_names:
                removed.append(str(dataset_dir))
                if not dry_run:
                    shutil.rmtree(dataset_dir, ignore_errors=True)
                continue
            for artifact_dir in sorted(p for p in dataset_dir.iterdir()
                                       if p.is_dir()):
                if not (artifact_dir / MANIFEST_NAME).is_file():
                    removed.append(str(artifact_dir))
                    if not dry_run:
                        shutil.rmtree(artifact_dir, ignore_errors=True)
            if not dry_run and dataset_dir.is_dir() and \
                    not any(dataset_dir.iterdir()):
                removed.append(str(dataset_dir))
                dataset_dir.rmdir()
        return removed
