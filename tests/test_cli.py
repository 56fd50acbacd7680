"""The command lines: ``python -m repro`` against ``python -m repro.serve``."""

import os
import re
import socket
import subprocess
import sys
import threading

import repro
from repro.__main__ import _public_key, main
from repro.core.messages import (MSG_JOIN_DENIED, MSG_JOIN_REQUEST,
                                 MSG_RESYNC_REPLY, MSG_RESYNC_REQUEST,
                                 Message)
from repro.core.resync import RESYNC_OK, parse_resync_body
from repro.core.signing import verify_message
from repro.crypto.suite import PAPER_SUITE

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


def _start_server(spec_path, *options):
    """``python -m repro.serve`` with one pre-registered key; returns
    the process and its port, the key and the public key it printed."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", spec_path,
         "--preregister", "1", *options],
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


def _ask(port, msg_type, user):
    """One request datagram; the decoded reply."""
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        sock.settimeout(10)
        sock.sendto(Message(msg_type=msg_type,
                            body=user.encode("utf-8")).encode(),
                    ("127.0.0.1", int(port)))
        return Message.decode(sock.recvfrom(65535)[0])


def test_coalescing_server_serves_the_spec(tmp_path, capsys):
    """``--coalesce`` serves the spec's group: its access list, its
    roster and its signing key; the CLI client joins and leaves it."""
    spec = tmp_path / "closed.spec"
    spec.write_text(SIGNED_SPEC + "access-list = user0, user-0000, "
                    "user-0001, user-0002, user-0003\n")
    process, port, key, server_key = _start_server(str(spec), "--coalesce")
    try:
        denial = _ask(port, MSG_JOIN_REQUEST, "mallory")
        assert denial.msg_type == MSG_JOIN_DENIED
        verify_message(PAPER_SUITE, denial, _public_key(server_key))
        resync = _ask(port, MSG_RESYNC_REQUEST, "user-0002")
        assert resync.msg_type == MSG_RESYNC_REPLY
        assert parse_resync_body(resync.body)[0] == RESYNC_OK
        assert main(["client", "--port", port, "--user", "user0",
                     "--key", key, "--server-key", server_key,
                     "--listen", "0.5", "--timeout", "10",
                     "--leave"]) == 0
    finally:
        process.terminate()
        process.communicate(timeout=10)
    out = capsys.readouterr().out
    assert re.search(r"user0 joined; leaf node \d+", out)
    assert "user0 left the group" in out
