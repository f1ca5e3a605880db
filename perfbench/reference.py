"""Machine-speed reference: a fixed job with no hermsig code in it, run in
a fresh interpreter.

    python3 perfbench/reference.py

The job imports a fixed list of standard-library modules, which loads and
runs some hundred compiled module bodies and grows a new heap: the kind of
work a fresh `hermsig run` process does.  On a shared machine its time
follows the machine's speed as session time does (see BASELINE.md); the
benchmark runs it before every session sample and divides session time by
it.  The last line of standard output is a JSON object with the seconds the
imports took and the number of modules they loaded.
"""

import time

t_start = time.perf_counter()
import importlib  # noqa: E402
import sys  # noqa: E402

MODULES = (
    "argparse", "ast", "asyncio", "calendar", "configparser", "csv",
    "dataclasses", "difflib", "doctest", "email.mime.multipart", "fractions",
    "gettext", "inspect", "json", "logging.handlers", "mailbox", "optparse",
    "pdb", "pickletools", "plistlib", "pstats", "pydoc", "shelve",
    "statistics", "tarfile", "textwrap", "trace", "unittest",
    "xml.dom.minidom", "xml.etree.ElementTree", "zipfile",
)


def main() -> None:
    before = len(sys.modules)
    for name in MODULES:
        importlib.import_module(name)
    elapsed = time.perf_counter() - t_start
    print('{"ref_s": %r, "modules": %d}' % (elapsed, len(sys.modules) - before))


if __name__ == "__main__":
    main()
