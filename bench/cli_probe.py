"""One traced `spirallike` CLI call: python bench/cli_probe.py SUBCOMMAND ARGS...

Times the import of spirallike.cli, installs the layer tracer, runs the
CLI's main with the given arguments (its output goes to stdout as usual),
and writes one JSON line to stderr: import_s, main_s, the exit code and the
tracer's per-layer summary.
"""

import json
import sys
import time
from pathlib import Path


def main():
    t0 = time.perf_counter()
    import spirallike.cli as cli

    import_s = time.perf_counter() - t0
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracer as tracing

    tracer = tracing.Tracer()
    tracer.install()
    t1 = time.perf_counter()
    rc = cli.main(sys.argv[1:])
    sys.stdout.flush()
    main_s = time.perf_counter() - t1
    tracer.uninstall()
    info = {"import_s": import_s, "main_s": main_s, "rc": rc, "summary": tracer.summary()}
    sys.stderr.write(json.dumps(info) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())
