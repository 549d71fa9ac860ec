"""One CLI experiment in a fresh process, as a user would run it.

    python3 perfbench/child.py RECORD [--trace SPANS] [--setup-only] -- <lqgdisk args>

Imports `lqgdisk.cli` (the time at which the import returns is the end of
set-up), then calls `lqgdisk.cli.main` with the given arguments and exits
with its return code.  RECORD receives a JSON object with the monotonic
clock reading after the import, the seconds spent in `main`, and, with
--trace, the span summary of `tracing.Tracer`; SPANS receives the raw spans.
"""

import json
import os
import sys
import time

import lqgdisk.cli

SETUP_DONE = time.monotonic()


def main(argv):
    record_path = argv[0]
    split = argv.index("--")
    opts, cli_args = argv[1:split], argv[split + 1 :]
    expected = os.path.realpath(os.environ["PERFBENCH_SRC"])
    loaded = os.path.realpath(lqgdisk.cli.__file__)
    if not loaded.startswith(expected + os.sep):
        print(f"lqgdisk was imported from {loaded}, not from {expected}", file=sys.stderr)
        return 90
    record = {"setup_done": SETUP_DONE}
    if "--setup-only" in opts:
        _write(record_path, record)
        return 0
    spans_path = opts[opts.index("--trace") + 1] if "--trace" in opts else None
    tracer = None
    if spans_path:
        import tracing

        tracer = tracing.install()
    t0 = time.perf_counter()
    rc = lqgdisk.cli.main(cli_args)
    record["main_s"] = time.perf_counter() - t0
    record["rc"] = rc
    if tracer is not None:
        record["trace"] = tracer.summary()
        with open(spans_path, "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    _write(record_path, record)
    return rc


def _write(path, record):
    with open(path, "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
