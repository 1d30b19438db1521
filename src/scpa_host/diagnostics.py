"""Thread-safe single-line diagnostic records (TRACE / REJECT / EPOCH)."""

from __future__ import annotations

import sys
import threading
from typing import TextIO


class DiagnosticLog:
    """Writes one record per line to a stream; safe to share across threads.

    ``emit`` takes any number of lines and writes them together, with one
    flush.  Lines the stream cannot take (closed, broken pipe, disk full)
    are dropped and counted in ``dropped``: diagnostics never fail a
    dispatch or a tick.
    """

    def __init__(self, stream: TextIO | None = None):
        self._stream = stream
        self._lock = threading.Lock()
        self.dropped = 0

    def emit(self, *lines: str) -> None:
        if not lines:
            return
        stream = self._stream if self._stream is not None else sys.stderr
        with self._lock:
            try:
                print("\n".join(lines), file=stream, flush=True)
            except (OSError, ValueError):
                self.dropped += len(lines)

    __call__ = emit
