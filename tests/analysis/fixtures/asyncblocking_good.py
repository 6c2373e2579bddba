"""True negatives for ``async-blocking-reachability``.

The same shapes as ``asyncblocking_bad.py``, written the sanctioned
way: a handler that must wait hands the work to another thread as a
*callable argument* -- which never becomes a call edge, so the graph
cannot reach it -- and takes nothing from a queue it may wait on.
"""

import threading
import time


def _blocking_read(conn, path):
    """Only ever run on a thread of its own, never on the reactor."""
    time.sleep(0.1)
    conn.send(2, path.read_text(encoding="utf-8"))


class Service:
    def __init__(self):
        self.register_handler(3, self.read_settings)
        self.register_handler(5, self.handshake)
        self.register_handler(7, self.fanout)

    def register_handler(self, msg_type, handler):
        pass

    def read_settings(self, conn, path):
        threading.Thread(target=_blocking_read, args=(conn, path)).start()

    def handshake(self, conn, result_queue):
        result_queue.put_nowait("ready")
        conn.send(2, result_queue.get_nowait())

    def fanout(self, conn, fut):
        fut.add_done_callback(lambda done: conn.send(2, done.result()))
