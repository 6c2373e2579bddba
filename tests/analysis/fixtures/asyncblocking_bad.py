"""True positives for ``async-blocking-reachability``.

Each seeded violation is a blocking primitive reachable from a handler
an endpoint registers -- directly, or through a sync helper the call
graph must traverse.
"""

import time


def _backoff(attempt):
    """Sync helper: only bad because ``poll`` below reaches it."""
    time.sleep(0.1 * attempt)  # seeded: blocking external via chain


def _load_config(path):
    """Sync helper reached from ``read_settings``."""
    return path.read_text(encoding="utf-8")  # seeded: blocking file I/O


class Service:
    def __init__(self):
        self.register_handler(1, self.poll)
        self.register_handler(3, self.read_settings)
        self.register_handler(5, self.handshake)
        self.register_handler(7, self.fanout)

    def register_handler(self, msg_type, handler):
        pass

    def poll(self, conn, payload):
        for attempt in range(3):
            _backoff(attempt)
        conn.send(2, payload)

    def read_settings(self, conn, path):
        conn.send(2, _load_config(path))

    def handshake(self, conn, result_queue):
        payload = open("/etc/hostname").read()  # seeded: blocking open()
        result_queue.put(payload)  # seeded: sync queue put
        conn.send(2, payload)

    def fanout(self, conn, lock, fut):
        lock.acquire()  # seeded: sync lock acquire
        try:
            conn.send(2, fut.result())  # seeded: blocking Future.result()
        finally:
            lock.release()
