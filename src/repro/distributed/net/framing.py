"""Length-prefixed JSON framing: the checker service's wire format.

One frame is a 4-byte big-endian payload length followed by that many
bytes of compact UTF-8 JSON.  The framing is deliberately the dumbest
thing that works: the delta protocol already defines the *semantics*
that cross the wire (per-site sequenced objects, validated by
:func:`repro.distributed.delta.validate_extends` on both ends), so the
transport only needs to move JSON objects intact and detect truncation.

Both ends parse with the same :class:`FrameDecoder` — the server's
connection protocol feeds it whatever ``data_received`` delivers, the
blocking client whatever ``recv`` returns — and write with the same
:func:`encode_frame`, so the two sides cannot drift.

A frame larger than :data:`MAX_FRAME_BYTES` raises :class:`FrameError`
on *both* send and receive.  On receive this is the safety property: a
corrupt or malicious length prefix must fail fast — as soon as the four
header bytes are in — instead of making the reader buffer gigabytes.
"""

from __future__ import annotations

import json
import struct

__all__ = [
    "ACK",
    "FrameError",
    "MAX_FRAME_BYTES",
    "FrameDecoder",
    "encode_frame",
    "decode_payload",
]

#: Frame size ceiling (64 MiB): far above any real checkpoint, far
#: below anything that could hurt the process.
MAX_FRAME_BYTES = 64 << 20

_HEADER = struct.Struct(">I")

#: One compact encoder for every frame (``json.dumps`` with
#: ``separators`` builds a fresh ``JSONEncoder`` per call).
_encode_json = json.JSONEncoder(separators=(",", ":")).encode

#: The answer to every request that answers nothing, interned: a sender
#: passing this very object gets its frame without encoding, a receiver
#: gets this very object for its payload bytes without parsing.
ACK = {"ok": True, "value": None}
_ACK_PAYLOAD = _encode_json(ACK).encode("utf-8")
_ACK_FRAME = _HEADER.pack(len(_ACK_PAYLOAD)) + _ACK_PAYLOAD


class FrameError(RuntimeError):
    """A frame violates the wire format (oversized, truncated, not JSON)."""


def encode_frame(obj) -> bytes:
    """One message as wire bytes: length prefix + compact JSON."""
    if obj is ACK:
        return _ACK_FRAME
    payload = _encode_json(obj).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {len(payload)} bytes exceeds "
                         f"{MAX_FRAME_BYTES}-byte ceiling")
    return _HEADER.pack(len(payload)) + payload


def decode_payload(payload: bytes):
    """The JSON object carried by one frame's payload bytes."""
    if payload == _ACK_PAYLOAD:
        return ACK
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"frame payload is not JSON: {exc}") from exc


class FrameDecoder:
    """Incremental frame parser: bytes in, as they arrive; messages out.

    :meth:`feed` takes the next chunk of the byte stream — cut anywhere,
    mid-header included — and returns the messages it completed, in
    order.  What is left of a partial frame waits for the next chunk;
    :attr:`pending` is how many such bytes are held, which is what tells
    a clean EOF (0) from a truncation.
    """

    __slots__ = ("_buffer",)

    def __init__(self) -> None:
        self._buffer = bytearray()

    @property
    def pending(self) -> int:
        """Bytes of an incomplete frame held (0 at a frame boundary)."""
        return len(self._buffer)

    def feed(self, data: bytes) -> list:
        """The messages completed by ``data``.  Raises
        :class:`FrameError` on a length prefix over the ceiling — as
        soon as its four bytes are in, whatever follows them — or a
        payload that is not JSON; the stream is unusable from there on."""
        buffer = self._buffer
        if buffer:
            buffer += data
            data = buffer
        unpack, messages = _HEADER.unpack_from, []
        start, size = 0, len(data)
        while size - start >= 4:
            (length,) = unpack(data, start)
            if length > MAX_FRAME_BYTES:
                raise FrameError(f"peer announced a {length}-byte frame "
                                 f"(ceiling {MAX_FRAME_BYTES})")
            end = start + 4 + length
            if end > size:
                break
            messages.append(decode_payload(data[start + 4:end]))
            start = end
        if data is buffer:
            del buffer[:start]
        elif start < size:
            buffer += data[start:]
        return messages
