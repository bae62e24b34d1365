"""Run one `densecov` command line in this process, optionally traced.

    python3 perfbench/clichild.py [--trace-out=PATH] <densecov arguments>

Without ``--trace-out`` this does what the `densecov` console script does.
With it, the import of ``densecov.cli`` is timed, the tracer wraps the five
layers, and the span summary is written to PATH when the command returns.
"""

import json
import sys
import time


def main() -> int:
    argv = sys.argv[1:]
    if not (argv and argv[0].startswith("--trace-out=")):
        from densecov.cli import main as cli_main
        return cli_main(argv)
    trace_out = argv.pop(0).split("=", 1)[1]
    t0 = time.perf_counter()
    import densecov.cli
    import_s = time.perf_counter() - t0

    import tracer
    spans = tracer.Tracer()
    spans.install()
    try:
        return densecov.cli.main(argv)
    finally:
        spans.uninstall()
        with open(trace_out, "w") as fh:
            json.dump({"import_s": import_s, "summary": tracer.summary(spans.take())}, fh)


if __name__ == "__main__":
    sys.exit(main())
