"""Subprocess cluster launcher for examples, benchmarks, and tests.

:class:`ClusterLauncher` turns a :class:`~repro.net.config.ClusterSpec`
into running OS processes — one ``python -m repro.net.server`` per
replica/leaseholder — on loopback ports picked fresh per run.  It waits
for each server's ``READY`` line, can SIGKILL and restart individual
members (the smoke example and the failover benchmark do both), and
tears everything down on exit.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from .config import ClusterSpec, net_default_config

__all__ = ["ClusterLauncher", "free_ports", "local_spec"]


def free_ports(count: int) -> List[int]:
    """Reserve ``count`` distinct free loopback ports.

    Best-effort: the sockets are closed before the servers bind, so a
    busy machine can steal one in the window — fresh ports per run keep
    the race negligible for tests.
    """
    socks = []
    try:
        for _ in range(count):
            s = socket.socket()
            s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            s.bind(("127.0.0.1", 0))
            socks.append(s)
        return [s.getsockname()[1] for s in socks]
    finally:
        for s in socks:
            s.close()


def local_spec(
    n: int = 3,
    num_leaseholders: int = 1,
    seed: int = 0,
    storage_dir: Optional[str] = None,
    object_name: str = "kv",
    config=None,
) -> ClusterSpec:
    """A loopback cluster spec with fresh ports and epoch = now."""
    ports = free_ports(n + num_leaseholders)
    return ClusterSpec(
        n=n,
        num_leaseholders=num_leaseholders,
        addresses=[f"127.0.0.1:{p}" for p in ports],
        object_name=object_name,
        seed=seed,
        epoch=time.time(),
        storage_dir=storage_dir,
        config=config if config is not None else net_default_config(n),
    )


class ClusterLauncher:
    """Run a spec's servers as child processes."""

    def __init__(self, spec: ClusterSpec,
                 workdir: Optional[str] = None) -> None:
        self.spec = spec
        self._own_workdir = workdir is None
        self.workdir = Path(
            workdir if workdir is not None
            else tempfile.mkdtemp(prefix="repro-net-"))
        self.config_path = self.workdir / "cluster.json"
        spec.dump(self.config_path)
        self.procs: Dict[int, subprocess.Popen] = {}
        self.log_paths: Dict[int, Path] = {}
        self._log_offsets: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def start(self, timeout: float = 20.0) -> "ClusterLauncher":
        for pid in self.spec.server_pids:
            self.start_one(pid)
        self.wait_ready(list(self.spec.server_pids), timeout)
        return self

    def start_one(self, pid: int) -> None:
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env["PYTHONUNBUFFERED"] = "1"
        log_path = self.workdir / f"server-{pid}.log"
        self.log_paths[pid] = log_path
        # READY is searched for beyond this offset, so a restarted
        # member's old READY line can't satisfy the new wait.
        self._log_offsets[pid] = (
            log_path.stat().st_size if log_path.exists() else 0)
        log = open(log_path, "ab")
        self.procs[pid] = subprocess.Popen(
            [sys.executable, "-m", "repro.net.server",
             "--config", str(self.config_path), "--pid", str(pid)],
            stdout=log, stderr=subprocess.STDOUT, env=env,
        )
        log.close()

    def wait_ready(self, pids: List[int], timeout: float = 20.0) -> None:
        deadline = time.monotonic() + timeout
        for pid in pids:
            marker = f"READY pid={pid}".encode()
            while True:
                proc = self.procs[pid]
                if proc.poll() is not None:
                    raise RuntimeError(
                        f"server {pid} exited with {proc.returncode}; log:\n"
                        + self.log_paths[pid].read_text()
                    )
                try:
                    data = self.log_paths[pid].read_bytes()
                    if marker in data[self._log_offsets.get(pid, 0):]:
                        break
                except OSError:
                    pass
                if time.monotonic() > deadline:
                    raise TimeoutError(f"server {pid} never became ready")
                time.sleep(0.02)

    # ------------------------------------------------------------------
    def kill(self, pid: int, sig: int = signal.SIGKILL) -> None:
        """Signal one member (default SIGKILL — the crash-stop model)."""
        proc = self.procs.get(pid)
        if proc is not None and proc.poll() is None:
            proc.send_signal(sig)
            proc.wait(timeout=10)

    def restart(self, pid: int, timeout: float = 20.0) -> None:
        self.kill(pid)
        self.start_one(pid)
        self.wait_ready([pid], timeout)

    def stop(self) -> None:
        for proc in self.procs.values():
            if proc.poll() is None:
                proc.terminate()
        deadline = time.monotonic() + 5.0
        for proc in self.procs.values():
            remaining = max(deadline - time.monotonic(), 0.1)
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5)

    def __enter__(self) -> "ClusterLauncher":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()
