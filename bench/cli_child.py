"""Run one lsgame CLI command with every lsgame layer traced.

Usage: python bench/cli_child.py SPANS_FILE <lsgame.cli arguments...>

The traced cli-d7 run starts its commands through this file instead of
`python -m lsgame.cli`.  The command's layer totals and spans go to
SPANS_FILE as JSON; stdout, stderr and the exit code are the command's own.
"""

import json
import sys

from tracer import Tracer, span_stats


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from lsgame import cli

    tracer.start()
    try:
        code = cli.main(argv)
    finally:
        tracer.stop()
        with open(spans_file, "w") as fh:
            json.dump({"stats": span_stats(tracer.spans), "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
