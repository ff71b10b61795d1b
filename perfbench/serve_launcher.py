"""Start ``repro-experiments serve`` with the layer tracer installed.

Usage (from the checkout root)::

    python3 perfbench/serve_launcher.py --spans-out FILE -- serve [serve flags]

The tracer wraps the layer functions before the CLI starts serving; when
the daemon stops (SIGINT), the merged span aggregates are written to
``FILE`` as JSON.  The process layout matches an untraced
``python -m repro.cli serve``: one process, one thread per connection.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main(argv: list) -> int:
    if len(argv) < 3 or argv[0] != "--spans-out" or argv[2] != "--":
        print("usage: serve_launcher.py --spans-out FILE -- serve [flags]", file=sys.stderr)
        return 2
    out, cli_args = argv[1], argv[3:]
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here))
    from common import use_checkout_sources

    use_checkout_sources()
    from tracer import Tracer, install

    import repro.cli

    tracer = Tracer()
    installed = install(tracer)
    try:
        return repro.cli.main(cli_args)
    finally:
        installed.remove()
        with open(out, "w") as fh:
            json.dump(tracer.snapshot(), fh)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
