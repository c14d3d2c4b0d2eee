"""Run one lppdet CLI command with the tracer installed.

    python3 perfbench/cli_child.py PREFIX [lppdet arguments...]

Writes the spans to PREFIX.spans.gz (gzip JSON lines) and, to PREFIX.json,
the duration of ``lppdet.cli.main`` and the tracer's own install and dump
time, so that the parent can tell start-up from tracing.  Exits with the
command's exit code.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import import_program  # noqa: E402
from tracing import Tracer, dump_spans  # noqa: E402


def main() -> int:
    prefix, argv = Path(sys.argv[1]), sys.argv[2:]
    import_program()
    import lppdet.cache  # noqa: F401  (every module must be loaded before wrapping)
    import lppdet.cli

    clock = time.perf_counter
    start = clock()
    tracer = Tracer()
    tracer.install()
    tracer_s = clock() - start
    start = clock()
    code = lppdet.cli.main(argv)
    main_s = clock() - start
    start = clock()
    dump_spans(tracer.spans, prefix.with_suffix(".spans.gz"))
    tracer_s += clock() - start
    prefix.with_suffix(".json").write_text(json.dumps({"main_s": main_s, "tracer_s": tracer_s}))
    return code


if __name__ == "__main__":
    sys.exit(main())
