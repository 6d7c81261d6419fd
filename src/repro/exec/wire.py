"""Length-prefixed JSON framing for the experiment cluster protocol.

Every message on a cluster connection is one *frame*: a 4-byte
big-endian unsigned length followed by that many bytes of payload.
On an unauthenticated connection the payload is UTF-8 JSON encoding a
single object; on an authenticated one it is a 32-byte HMAC-SHA256 tag
followed by the JSON (see :class:`FrameAuth`). Frames are small (an
experiment or report document), so the dispatcher and worker always
read a whole frame before acting, and a truncated or oversized frame
is a protocol error rather than a hang.

Message types (the ``"type"`` key of the decoded object), all on the
persistent connections of the cluster service (:mod:`repro.exec.cluster`):

``run``
    Dispatcher → worker: ``{"type": "run", "task": <id>, "experiment":
    <Experiment.to_dict()>}``. The worker executes the experiment and
    answers with exactly one ``result`` or ``error`` frame echoing the
    ``"task"`` id. An optional ``"trace"`` key carries a
    ``TraceContext.to_dict()`` so the worker's spans join the caller's
    trace.
``result``
    Worker → dispatcher: ``{"type": "result", "result":
    <SystemReport.to_dict()>}``, optionally carrying ``"spans"`` — the
    span records the worker opened while executing the task, for
    merged distributed traces. The dispatcher forwards results to
    clients tagged with ``batch`` and ``task``.
``error``
    Worker → dispatcher: ``{"type": "error", "error": <message>,
    "kind": <exception class name>}``. The task failed but the worker
    survives; the dispatcher decides whether to retry.
``ping`` / ``pong``
    Health probe and its reply. Registered workers send ``ping`` as an
    idle heartbeat; the dispatcher answers ``pong``.
``shutdown``
    Admin client → dispatcher: acknowledge with ``{"type": "ok"}``,
    then stop the whole dispatcher.
``hello`` / ``welcome``
    Session handshake. A connecting peer announces its role
    (``"worker"`` or ``"client"``), a display ``name`` (shown for
    workers in ``status``) and its ``proto`` generation; the
    dispatcher answers ``welcome`` with the assigned session id.
``submit`` / ``batch-done``
    Client → dispatcher: one batch of experiment documents under a
    client-chosen ``batch`` id. The dispatcher streams back ``result``
    /``error`` frames tagged with ``batch`` and ``task`` (the index
    within the batch) and finishes with ``batch-done``.
``notice``
    Dispatcher → client: a non-completion event (currently only
    ``{"event": "retry"}`` when a task was re-queued).
``drain`` / ``drained``
    From a worker: stop assigning me work, send ``goodbye`` once my
    in-flight task is done. From an admin client: finish everything
    queued and in flight, refuse new submissions, reply ``drained``.
``status``
    Admin request; the reply (same type) carries worker, queue and
    cache-tier counters.
``goodbye``
    Dispatcher → worker: the session is over, exit cleanly.

The JSON encoding is canonical (``sort_keys=True``, compact
separators) so a payload's bytes are identical whichever process
produced it — the same property the result cache relies on.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import os
import socket
import struct
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..errors import WireAuthError, WireProtocolError

#: Frame length prefix: 4-byte big-endian unsigned int.
_HEADER = struct.Struct(">I")

#: Hard ceiling on a single frame. Reports and experiments are a few
#: KB; anything near this size is a corrupted or hostile stream.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Size of the HMAC-SHA256 tag prepended to authenticated payloads.
AUTH_TAG_BYTES = 32

#: Minimum usable shared-key length (bytes) for :class:`FrameAuth`.
MIN_KEY_BYTES = 16

#: Wire-protocol generation, carried in every ``hello`` frame and
#: validated by the dispatcher before the session proceeds. Bump on any
#: incompatible change to the frame vocabulary or field shapes.
PROTO_VERSION = 1

MSG_RUN = "run"
MSG_RESULT = "result"
MSG_ERROR = "error"
MSG_PING = "ping"
MSG_PONG = "pong"
MSG_SHUTDOWN = "shutdown"
MSG_OK = "ok"
MSG_HELLO = "hello"
MSG_WELCOME = "welcome"
MSG_SUBMIT = "submit"
MSG_BATCH_DONE = "batch-done"
MSG_NOTICE = "notice"
MSG_DRAIN = "drain"
MSG_DRAINED = "drained"
MSG_STATUS = "status"
MSG_GOODBYE = "goodbye"

#: Frame-size and header helpers are reused by the asyncio dispatcher,
#: which reads frames through StreamReader instead of a socket.
HEADER_BYTES = _HEADER.size


class FrameAuth:
    """Shared-key mutual authentication for wire frames.

    Both peers hold the same secret key (usually distributed as a
    *keyfile*); every frame's payload is prefixed with an HMAC-SHA256
    tag over the JSON body, and a frame whose tag does not verify is
    rejected with :class:`~repro.errors.WireAuthError` before the body
    is even parsed. This authenticates *both* directions of a
    connection — a dispatcher only acts on signed requests and a
    client/worker only trusts signed replies — and protects frame
    integrity on the wire.

    It deliberately does **not** encrypt: for confidentiality on
    untrusted networks wrap the transport in TLS — every connect/serve
    seam in :mod:`repro.exec.cluster` accepts an ``ssl`` context for
    exactly that.
    """

    def __init__(self, key: Union[bytes, str]) -> None:
        if isinstance(key, str):
            key = key.encode("utf-8")
        if len(key) < MIN_KEY_BYTES:
            raise WireAuthError(
                f"shared key must be at least {MIN_KEY_BYTES} bytes, "
                f"got {len(key)}")
        self._key = bytes(key)

    @classmethod
    def from_keyfile(cls, path: Union[str, Path]) -> "FrameAuth":
        """Load the shared key from a file (surrounding whitespace is
        ignored, so ``openssl rand -hex 32 > cluster.key`` works)."""
        try:
            raw = Path(path).read_bytes().strip()
        except OSError as error:
            raise WireAuthError(f"cannot read keyfile {path}: {error}")
        return cls(raw)

    @classmethod
    def generate_keyfile(cls, path: Union[str, Path]) -> "FrameAuth":
        """Create a fresh random keyfile (0600) and return its auth."""
        key = os.urandom(32).hex().encode("ascii")
        target = Path(path)
        target.write_bytes(key + b"\n")
        try:
            target.chmod(0o600)
        except OSError:         # pragma: no cover - odd filesystems
            pass
        return cls(key)

    def sign(self, body: bytes) -> bytes:
        return hmac.new(self._key, body, hashlib.sha256).digest()

    def verify(self, tag: bytes, body: bytes) -> bool:
        return hmac.compare_digest(self.sign(body), tag)


def encode_frame(message: Dict[str, Any], *,
                 auth: Optional[FrameAuth] = None) -> bytes:
    """Serialize one message to its on-wire bytes (header + payload).

    With ``auth`` the payload is ``HMAC-SHA256(body) + body``; without
    it, just the canonical JSON body.
    """
    if not isinstance(message, dict) or "type" not in message:
        raise WireProtocolError(
            f"wire messages must be dicts with a 'type' key, got {message!r}")
    try:
        body = json.dumps(message, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as error:
        raise WireProtocolError(f"unserialisable wire message: {error}")
    payload = auth.sign(body) + body if auth is not None else body
    if len(payload) > MAX_FRAME_BYTES:
        raise WireProtocolError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit")
    return _HEADER.pack(len(payload)) + payload


def unpack_length(header: bytes) -> int:
    """Decode and bounds-check a frame's 4-byte length prefix."""
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise WireProtocolError(
            f"peer announced a {length}-byte frame (limit "
            f"{MAX_FRAME_BYTES}); closing")
    return length


def decode_payload(payload: bytes, *,
                   auth: Optional[FrameAuth] = None) -> Dict[str, Any]:
    """Decode (and, with ``auth``, verify) one frame payload."""
    if auth is not None:
        if len(payload) < AUTH_TAG_BYTES:
            raise WireAuthError(
                f"authenticated frame too short for a tag "
                f"({len(payload)} bytes)")
        tag, body = payload[:AUTH_TAG_BYTES], payload[AUTH_TAG_BYTES:]
        if not auth.verify(tag, body):
            raise WireAuthError(
                "frame failed HMAC authentication (peer has no or a "
                "different shared key)")
    else:
        body = payload
    return decode_body(body)


def decode_body(body: bytes) -> Dict[str, Any]:
    """Decode a frame body back into a message dict."""
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as error:
        raise WireProtocolError(f"malformed frame body: {error}")
    if not isinstance(message, dict) or "type" not in message:
        raise WireProtocolError(
            f"frame did not decode to a typed message: {message!r}")
    return message


def send_message(sock: socket.socket, message: Dict[str, Any], *,
                 auth: Optional[FrameAuth] = None) -> None:
    """Write one frame to a connected socket."""
    sock.sendall(encode_frame(message, auth=auth))


def recv_message(sock: socket.socket, *,
                 auth: Optional[FrameAuth] = None) -> Dict[str, Any]:
    """Read exactly one frame from a connected socket.

    Raises :class:`WireProtocolError` on a truncated stream, an
    oversized length prefix, or a malformed body, and
    :class:`~repro.errors.WireAuthError` when ``auth`` is given and the
    frame's tag does not verify. Socket timeouts and OS errors
    propagate unchanged so callers can distinguish a sick peer from a
    sick protocol.
    """
    header = _recv_exact(sock, _HEADER.size)
    length = unpack_length(header)
    return decode_payload(_recv_exact(sock, length), auth=auth)


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise WireProtocolError(
                f"connection closed mid-frame ({count - remaining} of "
                f"{count} bytes read)")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# -- message constructors -----------------------------------------------------------

def run_request(experiment_doc: Dict[str, Any], *,
                trace: Dict[str, Any] = None) -> Dict[str, Any]:
    """A ``run`` frame; ``trace`` optionally attaches a
    :meth:`~repro.obs.TraceContext.to_dict` so spans opened by the
    executing worker land in the caller's trace. Readers that predate
    the key ignore it."""
    request = {"type": MSG_RUN, "experiment": experiment_doc}
    if trace is not None:
        request["trace"] = trace
    return request


def result_reply(report_doc: Dict[str, Any], *,
                 spans: list = None) -> Dict[str, Any]:
    """A ``result`` frame; ``spans`` optionally attaches the span
    records (:meth:`~repro.obs.SpanTracer.snapshot`) the worker opened
    for this task. Readers that predate the key ignore it."""
    reply = {"type": MSG_RESULT, "result": report_doc}
    if spans is not None:
        reply["spans"] = spans
    return reply


def error_reply(error: BaseException) -> Dict[str, Any]:
    return {"type": MSG_ERROR, "error": str(error),
            "kind": type(error).__name__}


def hello_message(role: str, name: str, *,
                  proto: int = PROTO_VERSION) -> Dict[str, Any]:
    """The session-opening frame on a cluster connection."""
    return {"type": MSG_HELLO, "role": role, "name": name,
            "proto": int(proto)}
