"""
Peak RSS of one `parqc compile` in a fresh process, parent or worker.

    python3 bench/peak_rss.py COMPILE-ARGUMENTS...

Prints {"exit": code, "peak_rss_kib": n}. The pool's workers have been joined
when the compile returns, so RUSAGE_CHILDREN covers the largest of them.
ru_maxrss is in KiB on Linux.
"""
import contextlib
import io
import json
import resource
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from parqc.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        code = main(sys.argv[1:])
    peak = max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    print(json.dumps({"exit": code, "peak_rss_kib": peak}))
