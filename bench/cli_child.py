"""One fresh CLI process of the cli-cold workload.

    cli_child.py [--trace] <troplab cli arguments>

In this one interpreter: the calibration loop, then the troplab CLI as
`python -m troplab.cli` runs it (import included), then the loop again.
The CLI's stdout and exit code are unchanged.  One stderr line, starting
with spans.TRACE_MARK, reports the loop samples (perf_counter is one
clock for all processes) and, with --trace, the span totals of the layer
tracer.
"""

import json
import sys

from calib import Calibrator
from spans import TRACE_MARK, Tracer

LOOPS = 10  # each side of the CLI: about a twentieth of a cold call


def main():
    argv = sys.argv[1:]
    traced = argv[:1] == ["--trace"]
    if traced:
        argv = argv[1:]
    cal = Calibrator()
    cal.burst(LOOPS)
    import troplab.cli

    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    try:
        code = troplab.cli.main(argv)
    finally:
        if tracer is not None:
            tracer.uninstall()
        sys.stdout.flush()
    cal.burst(LOOPS)
    report = {"stamps": cal.stamps, "loops": cal.loops}
    if tracer is not None:
        report.update(spans=tracer.take(), counts=tracer.counts)
    print(TRACE_MARK + json.dumps(report), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
