"""CLI: trace-store maintenance and run-registry queries.

``python -m repro.exec --cache {stats,clear,export,import}``
operates on the sharded trace store (``--dir`` defaults to
``REPRO_CACHE_DIR`` or ``.maya-cache/``); ``export``/``import`` move
shard tarballs (``--archive``) so fleets can merge caches.

``python -m repro.exec --registry {list,show,diff}`` queries the run
registry (``--dir`` defaults to ``REPRO_REGISTRY_DIR`` or
``.maya-registry/``); ``show`` and ``diff`` take manifest ids via
``--run`` (and ``--other``).
"""

from __future__ import annotations

import argparse
import json

from .cache import TraceCache
from .registry import RunRegistry

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.exec",
        description="Parallel execution engine: trace-store and registry "
                    "maintenance",
    )
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument(
        "--cache",
        choices=("stats", "clear", "export", "import"),
        help="trace store: print statistics, remove every entry, or "
             "export/import a shard tarball",
    )
    action.add_argument(
        "--registry",
        choices=("list", "show", "diff"),
        help="run registry: list recorded runs, show one manifest, or diff "
             "two manifests field by field",
    )
    parser.add_argument(
        "--dir",
        default=None,
        help="store/registry directory (default: REPRO_CACHE_DIR or "
             ".maya-cache for --cache; REPRO_REGISTRY_DIR or .maya-registry "
             "for --registry)",
    )
    parser.add_argument(
        "--archive",
        default=None,
        help="tarball path for --cache export/import",
    )
    parser.add_argument(
        "--run",
        default=None,
        help="run id for --registry show/diff",
    )
    parser.add_argument(
        "--other",
        default=None,
        help="second run id for --registry diff",
    )
    return parser


def _cache_main(args) -> int:
    cache = TraceCache(args.dir)
    if args.cache == "stats":
        print(json.dumps(cache.stats(), indent=2, sort_keys=True))
    elif args.cache == "clear":
        removed = cache.clear()
        print(json.dumps({"dir": str(cache.root), "removed": removed},
                         sort_keys=True))
    else:
        if not args.archive:
            print("--cache export/import requires --archive PATH")
            return 2
        if args.cache == "export":
            print(json.dumps(cache.export_archive(args.archive),
                             sort_keys=True))
        else:
            print(json.dumps(cache.import_archive(args.archive),
                             sort_keys=True))
    return 0


def _registry_main(args) -> int:
    registry = RunRegistry(args.dir)
    if args.registry == "list":
        for row in registry.list_runs():
            print(json.dumps(row, sort_keys=True))
        return 0
    if not args.run:
        print("--registry show/diff requires --run RUN_ID")
        return 2
    try:
        if args.registry == "show":
            print(json.dumps(registry.get(args.run), indent=2, sort_keys=True))
        else:
            if not args.other:
                print("--registry diff requires --other RUN_ID")
                return 2
            print(json.dumps(registry.diff(args.run, args.other), indent=2,
                             sort_keys=True))
    except KeyError as failure:
        print(str(failure.args[0]))
        return 1
    return 0


def main(argv: list | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.cache is not None:
        return _cache_main(args)
    return _registry_main(args)


if __name__ == "__main__":
    raise SystemExit(main())
