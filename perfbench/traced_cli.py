"""Run one forestalg CLI command with the layer trace installed.

Usage: python3 perfbench/traced_cli.py <forestalg arguments...>

The command's report goes to stdout exactly as ``forestalg`` prints it; the
trace totals go to stderr as one line starting with ``TRACE ``.  The exit
code is the command's.
"""

import json
import sys

import layers


def main() -> int:
    tracer = layers.Tracer()
    tracer.install()
    from forestalg import cli

    code, wall = tracer.root(cli.main, sys.argv[1:])
    sys.stdout.flush()
    record = tracer.totals()
    record["wall_s"] = wall
    print("TRACE " + json.dumps(record), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
