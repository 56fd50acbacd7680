"""The command lines: ``python -m repro`` against ``python -m repro.serve``."""

import os
import re
import subprocess
import sys
import threading

import repro
from repro.__main__ import main

SIGNED_SPEC = """
initial-size = 4
degree       = 4
cipher       = des
digest       = md5
signature    = rsa-512
signing      = merkle
seed         = cli-test
"""


def test_demo_members_hold_the_group_key(capsys):
    assert main(["demo", "--members", "4"]) == 0
    out = capsys.readouterr().out
    assert "4/4 clients hold the group key" in out
    assert "after one leave: 3/3 rekeyed" in out


def _start_server(spec_path):
    """``python -m repro.serve`` with one pre-registered key; returns
    the process and its port, the key and the public key it printed."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", spec_path,
         "--preregister", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    # A server that never gets ready is killed, which ends the read.
    watchdog = threading.Timer(60.0, process.kill)
    watchdog.start()
    printed = ""
    try:
        for line in process.stdout:
            printed += line
            if "scrape:" in line:
                break
        else:
            process.kill()
            _, errors = process.communicate(timeout=10)
            raise AssertionError(f"server exited: {errors}")
    finally:
        watchdog.cancel()
    port = re.search(r"udp \('[^']*', (\d+)\)", printed).group(1)
    key = re.search(r"individual-key=([0-9a-f]+)", printed).group(1)
    server_key = re.search(r"server-key=([0-9a-f]+:[0-9a-f]+)",
                           printed).group(1)
    return process, port, key, server_key


def test_client_joins_and_leaves_a_signed_server(tmp_path, capsys):
    spec = tmp_path / "signed.spec"
    spec.write_text(SIGNED_SPEC)
    process, port, key, server_key = _start_server(str(spec))
    try:
        assert main(["client", "--port", port, "--user", "user0",
                     "--key", key, "--server-key", server_key,
                     "--listen", "0.5", "--timeout", "10",
                     "--leave"]) == 0
    finally:
        process.terminate()
        process.communicate(timeout=10)
    out = capsys.readouterr().out
    assert "user0 joined" in out
    assert "user0 left the group" in out
