"""Run one ``qmaflow`` command in this process and record its solve window.

    python3 perfbench/launch.py --marks MARKS.json [--trace SPANS.json] -- <qmaflow args>

The command goes through ``qmaflow.cli.main`` exactly as the ``qmaflow``
console script does.  The only additions are two clock stamps around the
first call into the stepper (``run_to_steady``) or the identity suite,
written to MARKS.json (see ``hostclock.py``; the parent subtracts its own
spawn stamp from the first); with ``--trace`` the layer spans of
``tracing.py`` are recorded too.  Exits with the command's exit code.
"""

import argparse
import json
import sys
from pathlib import Path

import hostclock

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--marks", required=True)
    parser.add_argument("--trace")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    from qmaflow import cli

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    marks = {}

    def timed(fn):
        def wrapper(*a, **kw):
            marks.setdefault("solve_start", hostclock.stamp())
            try:
                return fn(*a, **kw)
            finally:
                marks["solve_end"] = hostclock.stamp()

        return wrapper

    cli.run_to_steady = timed(cli.run_to_steady)
    cli.run_identity_suite = timed(cli.run_identity_suite)
    code = cli.main(command)
    Path(args.marks).write_text(json.dumps(marks))
    if tracer is not None:
        tracer.dump(args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
