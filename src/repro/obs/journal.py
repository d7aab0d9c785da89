"""One append-only journal: NDJSON lines in segments of bounded size.

``pckpt serve`` appends every per-job record to the journal under
``<store>/service/journal/``: job records, job events, result indexes
and the spans of the jobs it runs.  A line is the record's bytes as
they are sent or written elsewhere, with no envelope; each record names
its ``kind`` and its job or trace.

The journal is one byte stream cut into segment files, each named by
the offset of its first byte, so an offset means the same line whatever
segment holds it.  An append goes whole into the last segment, which
takes no more once it holds ``segment_bytes``.  Each append is one
write of whole lines under one lock, then a flush, so appends from many
threads never interleave, and a killed writer leaves at most a torn
last line, which :meth:`Journal.lines` skips and :meth:`Journal.open`
cuts off.
"""

from __future__ import annotations

import json
import os
import threading
from bisect import bisect_right
from pathlib import Path
from typing import IO, Dict, Iterator, List, Optional, Tuple, Union

__all__ = ["SEGMENT_BYTES", "Journal", "journal_dir", "read_journal"]

#: A segment takes no appends once it holds this many bytes.
SEGMENT_BYTES: int = 16 * 1024 * 1024


def journal_dir(store_root: Union[str, Path]) -> Path:
    """``<store>/service/journal`` (not created)."""
    return Path(store_root) / "service" / "journal"


class Journal:
    """The segments of one journal directory: read them, append to them.

    Reading needs no :meth:`open`; an appender calls it once, after any
    replay through :meth:`lines`.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.segment_bytes = SEGMENT_BYTES
        names = os.listdir(directory) if self.directory.is_dir() else ()
        #: Segment start offsets, ascending.
        self.starts: List[int] = sorted(
            int(name[:-7]) for name in names
            if name.endswith(".ndjson") and name[:-7].isdigit())
        self.end = 0                               # set by open()
        self._lock = threading.Lock()
        self._fp: Optional[IO[bytes]] = None       # the segment appended to
        self._files: Dict[int, IO[bytes]] = {}     # start -> handle, for pread

    def segment_path(self, start: int) -> Path:
        return self.directory / f"{start:020d}.ndjson"

    def lines(self) -> Iterator[Tuple[int, bytes]]:
        """Every whole line, oldest first, as ``(offset, line)``.

        One sequential read; each line keeps its newline, and a piece
        after a segment's last newline (a torn append) is skipped.
        """
        for start in list(self.starts):
            data = self.segment_path(start).read_bytes()
            pos = 0
            while (nl := data.find(b"\n", pos)) >= 0:
                yield start + pos, data[pos:nl + 1]
                pos = nl + 1

    def open(self) -> None:
        """Take appends: cut a torn tail off the last segment, open it."""
        self.directory.mkdir(parents=True, exist_ok=True)
        if not self.starts:
            self.starts.append(0)
        start = self.starts[-1]
        fp = open(self.segment_path(start), "a+b")
        size = fp.seek(0, os.SEEK_END)
        keep = os.pread(fp.fileno(), size, 0).rfind(b"\n") + 1
        if keep < size:
            fp.truncate(keep)
        self._fp = self._files[start] = fp
        self.end = start + keep
        if keep >= self.segment_bytes:
            self._rotate()

    def append(self, data: bytes) -> int:
        """Append whole lines; returns the offset of their first byte."""
        with self._lock:
            start = self.end
            self._fp.write(data)
            self._fp.flush()
            self.end = start + len(data)
            if self.end - self.starts[-1] >= self.segment_bytes:
                self._rotate()
        return start

    def _rotate(self) -> None:
        # The full segment's handle stays open for reads.
        self.starts.append(self.end)
        self._fp = self._files[self.end] = open(
            self.segment_path(self.end), "a+b")

    def read(self, start: int, stop: int) -> bytes:
        """The journal's bytes ``[start, stop)``, across segments."""
        chunks = []
        i = bisect_right(self.starts, start)
        while start < stop:
            base = self.starts[i - 1]
            limit = self.starts[i] if i < len(self.starts) else stop
            n = min(stop, limit) - start
            chunks.append(os.pread(self._file(base).fileno(), n,
                                   start - base))
            start += n
            i += 1
        return b"".join(chunks)

    def _file(self, start: int) -> IO[bytes]:
        with self._lock:
            if start not in self._files:
                self._files[start] = open(self.segment_path(start), "rb")
            return self._files[start]

    def close(self) -> None:
        with self._lock:
            for fp in self._files.values():
                fp.close()
            self._files.clear()


def read_journal(store_root: Union[str, Path]) -> Iterator[Dict[str, object]]:
    """Every record in a store's journal, oldest first (lines that do
    not decode to an object are skipped)."""
    for _, line in Journal(journal_dir(store_root)).lines():
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict):
            yield record
