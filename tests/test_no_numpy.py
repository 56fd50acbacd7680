"""The served path is pure Python: nothing it imports or runs pulls in
numpy, whose import alone costs the server ~14 MB of resident memory."""

import os
import subprocess
import sys

import repro

PROGRAM = """
import sys
import repro.cluster.coordinator
import repro.core.client
import repro.core.server
import repro.serve
from repro.core.server import GroupKeyServer, ServerConfig
from repro.crypto.suite import PAPER_SUITE

server = GroupKeyServer(ServerConfig(suite=PAPER_SUITE, signing="merkle",
                                     seed=b"no-numpy"))
server.bootstrap([(f"m{i}", server.new_individual_key())
                  for i in range(64)])
server.join("joiner", server.new_individual_key())
server.leave("m7")
assert len(server.members()) == 64
assert "numpy" not in sys.modules, "numpy was imported"
"""


def test_serving_a_join_and_a_leave_never_imports_numpy():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", PROGRAM], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
