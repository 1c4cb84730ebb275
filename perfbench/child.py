"""Benchmark-owned child processes and the pipe protocol they speak.

Each child runs ``launcher.py``: it reads one pickled config from its
stdin, sets up (the codec, or a ``DbgcServer``), answers with a ready
message and then serves requests, one pickled message each way.  Both
ends of every pipe are this benchmark, so unpickling is safe.
"""

from __future__ import annotations

import os
import pickle
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAUNCHER = Path(__file__).resolve().parent / "launcher.py"
_LEN = struct.Struct("<Q")


class ChildError(RuntimeError):
    """A child reported an exception (its traceback is the message)."""


def send(stream, obj) -> None:
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    stream.write(_LEN.pack(len(data)))
    stream.write(data)
    stream.flush()


def recv(stream):
    head = stream.read(_LEN.size)
    if len(head) < _LEN.size:
        raise EOFError("peer closed the pipe")
    (size,) = _LEN.unpack(head)
    data = stream.read(size)
    if len(data) < size:
        raise EOFError("peer closed the pipe mid-message")
    return pickle.loads(data)


class Child:
    """One launcher process; ``hello`` is its ready message."""

    def __init__(self, role: str, config: dict, supervisor: "Supervisor") -> None:
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(LAUNCHER)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=ROOT,
        )
        supervisor.adopt(self)
        try:
            send(self.proc.stdin, {"role": role, **config})
            self.hello = self._reply()
        except BaseException:
            self.close()
            raise

    def _reply(self):
        reply = recv(self.proc.stdout)
        if "error" in reply:
            raise ChildError(reply["error"])
        return reply

    def ask(self, message: dict):
        send(self.proc.stdin, message)
        return self._reply()

    def close(self, timeout: float = 30.0) -> None:
        """Close the pipe (the child exits on EOF) and reap it."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Supervisor:
    """Tracks children; kills them all and exits if the run overstays."""

    def __init__(self, deadline_s: float) -> None:
        self._children: list[Child] = []
        self._lock = threading.Lock()
        self._timer = threading.Timer(deadline_s, self._expire)
        self._timer.daemon = True
        self._timer.start()

    def adopt(self, child: Child) -> None:
        with self._lock:
            self._children.append(child)

    def spawn(self, role: str, config: dict) -> Child:
        return Child(role, config, self)

    def kill_all(self) -> None:
        with self._lock:
            children, self._children = self._children, []
        for child in children:
            if child.proc.poll() is None:
                child.proc.kill()
            child.proc.wait()

    def _expire(self) -> None:
        print("perfbench: run deadline exceeded; stopping", file=sys.stderr, flush=True)
        self.kill_all()
        os._exit(3)

    def stop(self) -> None:
        self._timer.cancel()
        self.kill_all()
