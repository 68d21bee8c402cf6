"""Seeded async-blocking violations: the event loop must never block."""

import threading
import time

_flush_lock = threading.Lock()


async def handle(request):
    time.sleep(0.01)            # async-blocking: blocking sleep on the loop
    with _flush_lock:           # async-blocking: threading lock in async def
        return request


async def routed(request, loop, pool):
    def flush():                # nested sync def = routed through the pool:
        time.sleep(0.01)        # legal — never runs on the event loop
        with _flush_lock:
            return request
    return await loop.run_in_executor(pool, flush)


class Server:
    async def stop(self):
        self._pool.shutdown(wait=True)  # async-blocking: joins the workers on the loop
