"""The query service answering Q1-Q20 from several threads — via the facade.

Connects with ``service=True``, so the same ``Session.execute`` API now
routes through the concurrent query service: per-system admission
control, plan and result caches, each query run on the client thread
that asked for it.  Four client threads answer every benchmark query on Systems B and D, twice: the
first round compiles and executes, the second is served from the
result cache.  Then it prints every number the service measured.

Run:  PYTHONPATH=src python examples/serve_demo.py [scale]
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import repro
from repro.benchmark.queries import QUERIES

SYSTEMS = ("B", "D")
CLIENTS = 4


def main(scale: float = 0.002) -> None:
    print(f"generating document (f = {scale}) ...")
    text = repro.generate_string(scale)
    requests = [(system, number) for system in SYSTEMS
                for number in sorted(QUERIES)]

    with repro.connect(text, systems=SYSTEMS, service=True,
                       max_workers=8) as db:

        def serve(request):
            system, number = request
            cursor = db.session().execute(number, system=system)
            cursor.fetchall()
            return cursor.result_cache_hit

        with ThreadPoolExecutor(max_workers=CLIENTS) as clients:
            for label in ("first round", "second round"):
                hits = sum(clients.map(serve, requests))
                print(f"{label}: {len(requests)} queries from {CLIENTS} "
                      f"clients on {'/'.join(SYSTEMS)}, "
                      f"{hits} result-cache hit(s)")
        registry_text = db.service.export_metrics(as_text=True)

    # Every number the service measured, from the unified registry
    # (counters, gauges, and ring-buffer latency histograms):
    print()
    print(registry_text)


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.002)
