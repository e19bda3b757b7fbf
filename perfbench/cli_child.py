"""`circforge` CLI under the tracer, for the traced passes of cli_calls.

Usage: python perfbench/cli_child.py <circforge arguments>

Runs the CLI exactly as `python -m circforge.cli` would, with the layers
wrapped after the import.  At exit, also after an uncaught exception, it
writes the pass summary to stderr as the last line, after TRACE_MARK.
"""

import atexit
import json
import sys

from tracer import Tracer

TRACE_MARK = "PERFBENCH_TRACE "


def main():
    import circforge.cli

    tracer = Tracer()
    tracer.install()

    def report():
        tracer.uninstall()
        sys.stdout.flush()
        sys.stderr.write("\n" + TRACE_MARK + json.dumps(tracer.take_pass()) + "\n")

    atexit.register(report)
    sys.argv[0] = "circforge"
    circforge.cli.main()


if __name__ == "__main__":
    main()
