"""Run one configured experiment in a fresh interpreter and report timings.

Usage: python3 child.py CONFIG OUT_DIR RESULT_JSON TRACE(0|1)

The experiment goes through ``rgglab.cli.parse_and_dispatch(["experiment",
...])``, as a user's ``rgglab experiment`` would.  The moment
``parse_config`` returns marks the end of set-up; the moment dispatch
returns marks the end of the experiment and its report.  Both are
``time.monotonic()`` readings, comparable with the parent's clock.  With
TRACE=1 the layer call sites are wrapped first and the spans are written to
RESULT_JSON at exit, never into OUT_DIR.
"""

import json
import resource
import sys
import threading
import time


def main() -> int:
    config, out_dir, result_path, trace = sys.argv[1:5]
    marks = {}
    tracer = None
    if trace == "1":
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    from rgglab import cli

    parse_config = cli.parse_config

    def marked_parse_config(*args, **kwargs):
        parsed = parse_config(*args, **kwargs)
        marks["parsed"] = time.monotonic()
        marks["perf_parsed"] = time.perf_counter()
        return parsed

    cli.parse_config = marked_parse_config
    code = cli.parse_and_dispatch(["experiment", "--config", config, "--out", out_dir])
    done = time.monotonic()
    perf_done = time.perf_counter()
    result = {
        "exit_code": code,
        "parsed": marks.get("parsed"),
        "done": done,
        "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "perf_parsed": marks.get("perf_parsed"),
        "perf_done": perf_done,
        "main_thread": threading.get_ident(),
        "spans": tracer.spans if tracer is not None else None,
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
