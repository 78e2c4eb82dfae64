"""Launcher for the served workloads: ``serve_archive`` in its own process.

Usage: ``python3 server_main.py --src DIR --archive PATH --report PATH
[--spans PATH]``.  Serves the archive on a free loopback port with rate
limiting off (``serve --rate 0``: a closed loop at several hundred
requests per second would otherwise be answered 429), prints
``READY <port>``, and drains on SIGTERM.  With ``--spans`` it records
spans (see ``probes.py``) and writes them there after the drain.  The
last thing it does is write its peak RSS to ``--report``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import threading


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--archive", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--spans", default="")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from repro.service import AdmissionConfig, ServiceConfig, serve_archive

    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda _signum, _frame: stop.set())
    server = serve_archive(
        args.archive, config=ServiceConfig(admission=AdmissionConfig(rate=None))
    )
    tracer = None
    if args.spans:
        from probes import install_service
        from spans import Tracer

        tracer = Tracer()
        install_service(tracer, server.service)
    server.start()
    print(f"READY {server.port}", flush=True)
    while not stop.wait(0.2):
        pass
    server.drain()
    if tracer is not None:
        tracer.uninstall()
        tracer.write(args.spans)
    with open(args.report, "w", encoding="utf-8") as handle:
        json.dump({"peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
