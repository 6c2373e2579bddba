"""The client and server packages run on blocking sockets and threads:
importing them loads no event loop machinery."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_the_client_and_server_packages_do_not_import_asyncio():
    code = ("import sys\n"
            "import repro.client, repro.server, repro.metaserver, "
            "repro.transport, repro.protocol\n"
            "print('asyncio' in sys.modules)")
    path = os.pathsep.join(filter(None, (str(SRC),
                                         os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, check=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.stdout.strip() == "False"
