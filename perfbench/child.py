"""One benchmark sample: one session in this fresh interpreter.

    python3 perfbench/child.py DOC REPORT [SPANS]

Imports hermsig (timed as set-up), then times parse -> run_session ->
Report.to_json on the session document DOC, as `hermsig run` does, and
writes the report to REPORT.  With SPANS, the session runs traced and the
spans are written there.  The last line of standard output is a JSON object
with the timings and this process's peak resident set size.
"""

import time

t_start = time.perf_counter()
import hermsig.cli  # noqa: E402
import hermsig.session  # noqa: E402
t_imported = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main(argv) -> int:
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 1
    doc_path, report_path = argv[0], argv[1]
    with open(doc_path, encoding="utf-8") as fh:
        text = fh.read()
    tracer = None
    if len(argv) == 3:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    t0 = time.perf_counter()
    doc = hermsig.session.parse_session(text)
    report = hermsig.cli.run_session(doc)
    out = report.to_json()
    t1 = time.perf_counter()

    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(out)
    if tracer is not None:
        tracer.dump(argv[2])
    print(json.dumps({
        "setup_s": t_imported - t_start,
        "session_s": t1 - t0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
