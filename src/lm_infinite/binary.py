"""A length-checked cursor over the bytes of a binary file (LMTM, LMTS)."""

from __future__ import annotations

import struct


class ByteReader:
    """Reads fields in order from ``offset``. A field that runs past the
    end, or text that is not UTF-8, raises ``error`` naming the path and
    the bytes it needed."""

    def __init__(self, blob: bytes, path, error=ValueError, offset: int = 0):
        self.blob = memoryview(blob)
        self.path = path
        self.error = error
        self.offset = offset

    def at_end(self) -> bool:
        return self.offset >= len(self.blob)

    def take(self, n: int, what: str) -> memoryview:
        at = self.offset
        if at + n > len(self.blob):
            raise self.error(
                f"{self.path}: truncated at byte {len(self.blob)}: {what} needs "
                f"bytes [{at}, {at + n})"
            )
        self.offset = at + n
        return self.blob[at : at + n]

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def text(self, n: int, what: str) -> str:
        at = self.offset
        try:
            return str(self.take(n, what), "utf-8")
        except UnicodeDecodeError:
            raise self.error(f"{self.path}: {what} at byte {at} is not UTF-8") from None
