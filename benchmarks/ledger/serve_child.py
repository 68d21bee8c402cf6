#!/usr/bin/env python3
"""The served database of ``served_mix``, in a process of its own.

Generates the document, opens a direct System D connection, serves it on an
ephemeral port, prints one JSON ``ready`` line, then answers ``rss`` /
``stop`` lines on standard input.  End of input stops it too, so a harness
that dies takes its server with it.
"""

import gc
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def main() -> int:
    scale = float(sys.argv[1])
    sys.path.insert(0, str(ROOT / "src"))
    import repro
    from repro.server.server import XMarkServer, serve_in_thread

    started = time.perf_counter()
    document = repro.generate_string(scale)
    generated = time.perf_counter()
    database = repro.connect(document, systems=("D",))
    server = XMarkServer(max_workers=2, queue_depth=16)
    server.add_document("auction", database, owned=True)
    handle = serve_in_thread(server)
    gc.collect()
    gc.freeze()                 # as the harness does for in-process stores
    print(json.dumps({
        "url": handle.url,
        "generate_s": generated - started,
        "ready_s": time.perf_counter() - started,
        "size_ratio": database.load_reports["D"].size_ratio,
        "document_sha256": hashlib.sha256(document.encode("utf-8")).hexdigest(),
    }), flush=True)
    try:
        for line in sys.stdin:
            if line.strip() == "rss":
                peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                print(json.dumps({"peak_rss_mb": peak}), flush=True)
            elif line.strip() == "stop":
                break
    finally:
        handle.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
