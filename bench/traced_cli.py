"""Run one ncomplex command with timing spans on every layer entry point.

Usage: python3 bench/traced_cli.py TRACE_OUT -- <ncomplex arguments>

Stdout is the command's own output, byte for byte. The spans, the hook
counters, the lru-cache statistics and the wall time from the start of
this script to the command's return are written to TRACE_OUT as JSON
when the command returns. The exit code is the command's, or 3 when a
binding site escaped the wrappers.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

START = time.perf_counter()

import spans  # noqa: E402  (START is taken before any import that does work)


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    from ncomplex import cli

    modules = {m: importlib.import_module(f"ncomplex.{m}") for m, *_ in spans.TARGETS}
    package = [m for n, m in sys.modules.items() if n == "ncomplex" or n.startswith("ncomplex.")]
    tracer = spans.Tracer()
    originals = tracer.install(modules, package)
    bad = spans.unwrapped_sites(modules, package, originals)
    if bad:
        print("untraced binding sites: " + ", ".join(bad), file=sys.stderr)
        return 3
    code = cli.run(cli_args)
    sys.stdout.flush()
    wall = time.perf_counter() - START
    doc = tracer.dump()
    doc["wall_s"] = wall
    doc["caches"] = {metric: list(getattr(modules[mod], attr).cache_info()[:2])
                     for mod, attr, metric in spans.CACHES}
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
