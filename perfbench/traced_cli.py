"""Run one shoremap CLI command with the span tracer installed.

    python3 perfbench/traced_cli.py SPANS_JSON -- <shoremap arguments>

Behaves like ``python3 -m shoremap.cli <shoremap arguments>`` (same exit
code, same outputs) and, on exit, writes the process's spans and counters
to SPANS_JSON. A first span, ``cli.startup``, covers imports and tracer
installation from the top of this file.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        sys.stderr.write("usage: traced_cli.py SPANS_JSON -- <shoremap arguments>\n")
        return 2
    out_path, args = argv[0], argv[2:]

    from spans import Tracer, install

    tracer = Tracer()
    startup = tracer.open("cli.startup")
    tracer.spans[startup]["start"] = _T0
    import shoremap.cli

    install(tracer)
    tracer.close(startup)
    try:
        return shoremap.cli.main(args)
    finally:
        with open(out_path, "w") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
