"""Run the fbpaths CLI with the benchmark's tracing installed.

    python3 perfbench/traced_cli.py OUT_DIR <fbpaths arguments...>

Every process of the run (the CLI and its pool workers) writes its span
totals to OUT_DIR/<pid>.json.  Standard output is the CLI's own.
"""

import functools
import os
import sys

from tracing import Tracer


def main() -> int:
    out_dir, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import fbpaths.cli as cli

    main_pid = os.getpid()
    record = cli._identity_record

    @functools.wraps(record)
    def record_and_dump(task):
        try:
            return record(task)
        finally:
            if os.getpid() != main_pid:  # pool workers end without exit hooks
                tracer.dump(out_dir)

    cli._identity_record = record_and_dump
    try:
        return cli.main(argv)
    finally:
        tracer.dump(out_dir)


if __name__ == "__main__":
    sys.exit(main())
