"""Run one charwit CLI command with span tracing on.

    python perfbench/traced_cli.py SPANS_FILE -- <charwit arguments>

Times `import charwit`, wraps the public names at their binding sites
(tracer.install_cli_sites), calls charwit.cli.main and writes the spans as
JSON to SPANS_FILE on exit.  The exit code is main's.
"""

import json
import sys
import time

import tracer


def main(argv):
    spans_path, sep, args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS_FILE -- ARGS...")
    spans = tracer.Tracer()
    start = time.perf_counter()
    import charwit.cli
    spans.record("cli.import", start, time.perf_counter())
    tracer.install_cli_sites(spans)
    try:
        return charwit.cli.main(args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(spans.spans, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
