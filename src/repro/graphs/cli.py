"""``repro-graphs``: manage the on-disk graph artifact store.

The study's graphs are deterministic generator outputs, so they are built
*once* and mmap'd everywhere after (:mod:`repro.graphs.artifacts`).  This
CLI is the operator's front door to that store::

    repro-graphs build --root /var/cache/repro rmat22 uk07   # publish
    repro-graphs build --root /var/cache/repro --all
    repro-graphs list --root /var/cache/repro                # inventory
    repro-graphs verify --root /var/cache/repro              # checksums
    repro-graphs gc --root /var/cache/repro                  # sweep debris

``--root`` defaults to ``REPRO_ARTIFACT_DIR``; ``--shard-rows`` overrides
``REPRO_SHARD_ROWS`` for this invocation.  Exit codes: 0 ok, 1 problems
found (verify), 2 bad usage/environment.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro import errors
from repro.graphs import artifacts, datasets
from repro.service.config import validate_env_knobs


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-graphs`` argument parser (exposed for tests/docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-graphs",
        description="Build, inspect and garbage-collect the mmap-backed "
                    "graph artifact store.")
    parser.add_argument("--root", default=None, metavar="DIR",
                        help="store directory (default: REPRO_ARTIFACT_DIR)")
    parser.add_argument("--shard-rows", type=int, default=None, metavar="N",
                        help="rows per shard (default: REPRO_SHARD_ROWS "
                             "or 65536)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="generate and publish dataset artifacts")
    p.add_argument("names", nargs="*",
                   help="dataset names (see repro.graphs.datasets)")
    p.add_argument("--all", action="store_true",
                   help="build every built-in dataset")
    p.add_argument("--force", action="store_true",
                   help="discard and republish even when up-to-date")

    sub.add_parser("list", help="print the store inventory")

    p = sub.add_parser("verify", help="full checksum + structural check")
    p.add_argument("name", nargs="?", default=None,
                   help="restrict to one dataset")

    p = sub.add_parser("gc", help="sweep temp debris and unknown datasets")
    p.add_argument("--keep-unknown", action="store_true",
                   help="keep artifacts for datasets not registered here")
    p.add_argument("--dry-run", action="store_true",
                   help="print what would be removed without removing")
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        # Flags shadow the environment so the dataset machinery (which
        # reads the env) and this process agree on one store.
        if args.root is not None:
            os.environ["REPRO_ARTIFACT_DIR"] = args.root
        if args.shard_rows is not None:
            os.environ["REPRO_SHARD_ROWS"] = str(args.shard_rows)
        validate_env_knobs()
        store = artifacts.store_from_env()
        if store is None:
            print("repro-graphs: no store configured; pass --root or set "
                  "REPRO_ARTIFACT_DIR", file=sys.stderr)
            return 2
        return _dispatch(args, store)
    except errors.InvalidValue as exc:
        print(f"repro-graphs: {exc}", file=sys.stderr)
        return 2


def _dispatch(args, store: artifacts.ArtifactStore) -> int:
    if args.command == "build":
        names = list(args.names)
        if args.all:
            names += [name for name, ds in sorted(datasets.DATASETS.items())
                      if not ds.from_file and name not in names]
        if not names:
            print("repro-graphs: nothing to build; name datasets or pass "
                  "--all", file=sys.stderr)
            return 2
        for name in names:
            ds = datasets.get_dataset(name)
            if ds.from_file:
                print(f"{name}: file-backed dataset, not stored")
                continue
            if args.force:
                store.discard(name, "dir")
                store.discard(name, "sym")
            before = datasets.generation_count()
            # Resolving through the store publishes on miss; a fresh
            # per-dataset cache bounds this process to one graph at a
            # time.
            datasets.clear_cache()
            ds.build()
            ds.build_symmetric()
            datasets.clear_cache()
            action = ("built" if datasets.generation_count() > before
                      else "up-to-date")
            print(f"{name}: {action} "
                  f"({store.path(name, 'dir').parent})")
        return 0

    if args.command == "list":
        rows = store.entries()
        if not rows:
            print(f"store {store.root}: empty")
            return 0
        print(f"store {store.root}:")
        for manifest in rows:
            nbytes = sum(
                row["bytes"]
                for shard in manifest.get("shards", ())
                for row in shard.get("files", {}).values())
            print(f"  {manifest['name']}/{manifest['variant']}"
                  f"-r{manifest['shard_rows']}: "
                  f"{manifest['nrows']} rows, {manifest['nnz']} nnz, "
                  f"{len(manifest.get('shards', ()))} shard(s), "
                  f"{nbytes / 1e6:.1f} MB")
        return 0

    if args.command == "verify":
        problems = store.verify(name=args.name)
        for problem in problems:
            print(f"repro-graphs: {problem}", file=sys.stderr)
        if problems:
            return 1
        checked = [m for m in store.entries()
                   if args.name is None or m["name"] == args.name]
        print(f"verified {len(checked)} artifact(s): all checksums match")
        return 0

    if args.command == "gc":
        known = None if args.keep_unknown else sorted(datasets.DATASETS)
        removed = store.gc(known_names=known, dry_run=args.dry_run)
        verb = "would remove" if args.dry_run else "removed"
        for path in removed:
            print(f"{verb} {path}")
        print(f"gc: {verb} {len(removed)} path(s)")
        return 0

    raise errors.InvalidValue(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
