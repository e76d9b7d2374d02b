"""Launch ``repro serve`` with the benchmark's span wrappers installed.

Used only by the traced run of the served workloads; the untraced run
starts ``python -m repro serve`` directly.  The wrappers go in before
the existing ``serve`` entry point runs and come out after it returns
(on SIGTERM, once the service drained); the spans are then written to
``--spans``.

    python3 perfbench/traced_serve.py --spans spans.json -- serve --db ...
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import inputs  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--spans", required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    inputs.require_source()
    from tracer import Tracer

    from repro.cli import main as repro_main
    tracer = Tracer().install()
    try:
        code = repro_main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
