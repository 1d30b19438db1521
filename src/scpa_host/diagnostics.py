"""Thread-safe single-line diagnostic records (TRACE / REJECT / EPOCH)."""

from __future__ import annotations

import sys
import threading
from typing import TextIO


class DiagnosticLog:
    """Writes one record per line to a stream; safe to share across threads.

    A line the stream cannot take (closed, broken pipe, disk full) is
    dropped and counted in ``dropped``: diagnostics never fail a dispatch
    or a tick.
    """

    def __init__(self, stream: TextIO | None = None):
        self._stream = stream
        self._lock = threading.Lock()
        self.dropped = 0

    def emit(self, line: str) -> None:
        stream = self._stream if self._stream is not None else sys.stderr
        with self._lock:
            try:
                print(line, file=stream, flush=True)
            except (OSError, ValueError):
                self.dropped += 1

    __call__ = emit
