"""The length-prefixed JSON wire protocol."""

import socket
import stat
import struct

import pytest

from repro.errors import WireAuthError, WireProtocolError
from repro.exec.wire import (AUTH_TAG_BYTES, MAX_FRAME_BYTES, FrameAuth,
                             decode_body, decode_payload, encode_frame,
                             error_reply, recv_message, result_reply,
                             run_request, send_message)


def round_trip(message):
    frame = encode_frame(message)
    (length,) = struct.unpack(">I", frame[:4])
    assert length == len(frame) - 4
    return decode_body(frame[4:])


class TestFraming:
    def test_round_trip(self):
        message = run_request({"workload": "spec", "params": {"x": 1}})
        assert round_trip(message) == message

    def test_canonical_bytes(self):
        """Key order cannot change the encoded frame."""
        a = encode_frame({"type": "run", "experiment": {"b": 1, "a": 2}})
        b = encode_frame({"experiment": {"a": 2, "b": 1}, "type": "run"})
        assert a == b

    def test_rejects_untyped_messages(self):
        with pytest.raises(WireProtocolError):
            encode_frame({"no": "type"})
        with pytest.raises(WireProtocolError):
            encode_frame(["not", "a", "dict"])

    def test_rejects_unserialisable_payload(self):
        with pytest.raises(WireProtocolError):
            encode_frame({"type": "run", "experiment": object()})

    def test_rejects_malformed_body(self):
        with pytest.raises(WireProtocolError):
            decode_body(b"{truncated")
        with pytest.raises(WireProtocolError):
            decode_body(b"[1, 2, 3]")

    def test_constructors(self):
        assert run_request({"w": 1})["type"] == "run"
        assert result_reply({"ipc": 1.0})["type"] == "result"
        reply = error_reply(ValueError("boom"))
        assert reply == {"type": "error", "error": "boom",
                         "kind": "ValueError"}


class TestSocketTransport:
    def socket_pair(self):
        return socket.socketpair()

    def test_send_and_recv(self):
        left, right = self.socket_pair()
        try:
            message = result_reply({"name": "r", "ipc": 2.0})
            send_message(left, message)
            assert recv_message(right) == message
        finally:
            left.close()
            right.close()

    def test_truncated_stream_is_protocol_error(self):
        left, right = self.socket_pair()
        try:
            frame = encode_frame(run_request({"w": 1}))
            left.sendall(frame[:len(frame) - 3])
            left.close()
            with pytest.raises(WireProtocolError, match="mid-frame"):
                recv_message(right)
        finally:
            right.close()

    def test_oversized_announcement_rejected(self):
        left, right = self.socket_pair()
        try:
            left.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            with pytest.raises(WireProtocolError, match="limit"):
                recv_message(right)
        finally:
            left.close()
            right.close()

    def test_multiple_frames_on_one_connection(self):
        left, right = self.socket_pair()
        try:
            for i in range(3):
                send_message(left, {"type": "ping", "i": i})
            for i in range(3):
                assert recv_message(right)["i"] == i
        finally:
            left.close()
            right.close()


class TestFrameAuth:
    KEY = b"sixteen-byte-key" * 2

    def test_signed_round_trip(self):
        auth = FrameAuth(self.KEY)
        message = run_request({"w": 1})
        frame = encode_frame(message, auth=auth)
        (length,) = struct.unpack(">I", frame[:4])
        payload = frame[4:4 + length]
        assert decode_payload(payload, auth=auth) == message
        # The tag is real overhead on the wire.
        assert length == len(encode_frame(message)) - 4 + AUTH_TAG_BYTES

    def test_tampered_body_rejected(self):
        auth = FrameAuth(self.KEY)
        frame = encode_frame({"type": "ping", "i": 1}, auth=auth)
        payload = bytearray(frame[4:])
        payload[-1] ^= 0x01
        with pytest.raises(WireAuthError):
            decode_payload(bytes(payload), auth=auth)

    def test_tampered_tag_rejected(self):
        auth = FrameAuth(self.KEY)
        frame = encode_frame({"type": "ping"}, auth=auth)
        payload = bytearray(frame[4:])
        payload[0] ^= 0x01
        with pytest.raises(WireAuthError):
            decode_payload(bytes(payload), auth=auth)

    def test_unsigned_frame_rejected_when_auth_expected(self):
        auth = FrameAuth(self.KEY)
        frame = encode_frame({"type": "ping"})
        with pytest.raises(WireAuthError):
            decode_payload(frame[4:], auth=auth)

    def test_wrong_key_rejected(self):
        frame = encode_frame({"type": "ping"}, auth=FrameAuth(self.KEY))
        other = FrameAuth(b"a-different-32-byte-secret-key!!")
        with pytest.raises(WireAuthError):
            decode_payload(frame[4:], auth=other)

    def test_short_key_rejected(self):
        with pytest.raises(WireProtocolError, match="16 bytes"):
            FrameAuth(b"short")

    def test_keyfile_round_trip(self, tmp_path):
        path = tmp_path / "cluster.key"
        FrameAuth.generate_keyfile(path)
        mode = stat.S_IMODE(path.stat().st_mode)
        assert mode == 0o600
        auth = FrameAuth.from_keyfile(path)
        frame = encode_frame({"type": "ping"}, auth=auth)
        # A second load of the same file verifies the first's frames.
        again = FrameAuth.from_keyfile(path)
        assert decode_payload(frame[4:], auth=again) == {"type": "ping"}

    def test_socket_transport_with_auth(self):
        auth = FrameAuth(self.KEY)
        left, right = socket.socketpair()
        try:
            message = result_reply({"name": "r", "ipc": 2.0})
            send_message(left, message, auth=auth)
            assert recv_message(right, auth=auth) == message
            # An unsigned sender is rejected by an authed receiver.
            send_message(left, message)
            with pytest.raises(WireAuthError):
                recv_message(right, auth=auth)
        finally:
            left.close()
            right.close()
