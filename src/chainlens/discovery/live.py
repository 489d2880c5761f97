"""Live UDP discovery transport speaking the v4 wire protocol.

Packet layout: hash(32) || signature(65) || packet-type(1) || RLP payload,
where hash = Keccak-256 of everything after it and the signature is a
recoverable secp256k1 signature over Keccak-256(type || payload). A node's
identity is its uncompressed public key (64 bytes), so every valid packet
identifies its sender.

This transport exists for real networks. The codec and signature math are
unit-tested without sockets, and ping_pong and find_node over loopback
against an in-process responder; no test reaches beyond 127.0.0.1.
find_node takes NEIGHBORS only from the peer it asked. Concurrent calls
still share one socket, so one call can take a reply meant for another.
"""

from __future__ import annotations

import hashlib
import ipaddress
import logging
import socket
import time

from .. import rlp
from ..keccak import keccak256
from .identity import NODE_ID_LEN, PeerInfo

log = logging.getLogger(__name__)

# secp256k1 parameters
_P = 2**256 - 2**32 - 977
_N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
_GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
_GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8

_Point = tuple[int, int] | None  # None is the point at infinity

PING, PONG, FINDNODE, NEIGHBORS = 1, 2, 3, 4
_EXPIRATION_SLACK = 60


def _point_add(a: _Point, b: _Point) -> _Point:
    if a is None:
        return b
    if b is None:
        return a
    ax, ay = a
    bx, by = b
    if ax == bx:
        if (ay + by) % _P == 0:
            return None
        slope = (3 * ax * ax) * pow(2 * ay, -1, _P) % _P
    else:
        slope = (by - ay) * pow(bx - ax, -1, _P) % _P
    x = (slope * slope - ax - bx) % _P
    return x, (slope * (ax - x) - ay) % _P


def _point_mul(point: _Point, scalar: int) -> _Point:
    result: _Point = None
    addend = point
    while scalar:
        if scalar & 1:
            result = _point_add(result, addend)
        addend = _point_add(addend, addend)
        scalar >>= 1
    return result


def public_key(private_key: bytes) -> bytes:
    """64-byte uncompressed public key (the node identity)."""
    secret = int.from_bytes(private_key, "big")
    if not 0 < secret < _N:
        raise ValueError("private key out of range")
    point = _point_mul((_GX, _GY), secret)
    assert point is not None
    return point[0].to_bytes(32, "big") + point[1].to_bytes(32, "big")


def sign_recoverable(msg_hash: bytes, private_key: bytes) -> bytes:
    """65-byte r || s || recovery-id signature over a 32-byte digest."""
    secret = int.from_bytes(private_key, "big")
    z = int.from_bytes(msg_hash, "big")
    counter = 0
    while True:
        # deterministic nonce; uniqueness per (key, message) is what matters
        seed = hashlib.blake2b(private_key + msg_hash + counter.to_bytes(4, "big"),
                               digest_size=32).digest()
        k = int.from_bytes(seed, "big") % _N
        counter += 1
        if k == 0:
            continue
        point = _point_mul((_GX, _GY), k)
        assert point is not None
        r = point[0] % _N
        if r == 0 or point[0] >= _N:
            continue  # skip the rare r-overflow case rather than encode it
        s = pow(k, -1, _N) * (z + r * secret) % _N
        if s == 0:
            continue
        recovery_id = point[1] & 1
        if s > _N // 2:
            s = _N - s
            recovery_id ^= 1
        return (r.to_bytes(32, "big") + s.to_bytes(32, "big")
                + bytes([recovery_id]))


def recover_node_id(msg_hash: bytes, signature: bytes) -> bytes:
    """Recover the signer's 64-byte public key from a recoverable signature."""
    if len(signature) != 65:
        raise ValueError("signature must be 65 bytes")
    r = int.from_bytes(signature[:32], "big")
    s = int.from_bytes(signature[32:64], "big")
    recovery_id = signature[64]
    if not 0 < r < _N or not 0 < s < _N or recovery_id not in (0, 1):
        raise ValueError("signature values out of range")
    # lift r to a curve point with the recorded y parity
    y_sq = (pow(r, 3, _P) + 7) % _P
    y = pow(y_sq, (_P + 1) // 4, _P)
    if y * y % _P != y_sq:
        raise ValueError("signature r is not an x coordinate")
    if y & 1 != recovery_id:
        y = _P - y
    z = int.from_bytes(msg_hash, "big")
    r_inv = pow(r, -1, _N)
    point = _point_add(_point_mul((r, y), s),
                       _point_mul((_GX, _GY), (-z) % _N))
    point = _point_mul(point, r_inv)
    if point is None:
        raise ValueError("signature recovers to the point at infinity")
    return point[0].to_bytes(32, "big") + point[1].to_bytes(32, "big")


# -- packet codec ---------------------------------------------------------


def encode_packet(private_key: bytes, packet_type: int,
                  payload: list) -> bytes:
    signed = bytes([packet_type]) + rlp.encode(payload)
    signature = sign_recoverable(keccak256(signed), private_key)
    wrapper = signature + signed
    return keccak256(wrapper) + wrapper


def decode_packet(packet: bytes) -> tuple[bytes, int, list]:
    """Validate a packet; returns (sender node id, packet type, payload)."""
    if len(packet) < 32 + 65 + 1:
        raise ValueError("packet too short")
    if keccak256(packet[32:]) != packet[:32]:
        raise ValueError("packet hash mismatch")
    signed = packet[97:]
    sender = recover_node_id(keccak256(signed), packet[32:97])
    payload = rlp.decode(signed[1:])
    if not isinstance(payload, list):
        raise ValueError("packet payload is not a list")
    return sender, signed[0], payload


def _encode_endpoint(ip: str, udp_port: int, tcp_port: int) -> list:
    return [ipaddress.ip_address(ip).packed,
            rlp.encode_uint(udp_port), rlp.encode_uint(tcp_port)]


def _decode_ip(raw: bytes) -> str:
    return str(ipaddress.ip_address(raw))


def _to_int(raw: bytes) -> int:
    return int.from_bytes(raw, "big")


def _expiration() -> bytes:
    return rlp.encode_uint(int(time.time()) + _EXPIRATION_SLACK)


def encode_ping(private_key: bytes, source: tuple[str, int],
                dest: tuple[str, int]) -> bytes:
    payload = [rlp.encode_uint(4),
               _encode_endpoint(source[0], source[1], source[1]),
               _encode_endpoint(dest[0], dest[1], dest[1]),
               _expiration()]
    return encode_packet(private_key, PING, payload)


def encode_pong(private_key: bytes, dest: tuple[str, int],
                ping_hash: bytes) -> bytes:
    payload = [_encode_endpoint(dest[0], dest[1], dest[1]),
               ping_hash, _expiration()]
    return encode_packet(private_key, PONG, payload)


def encode_findnode(private_key: bytes, target: bytes) -> bytes:
    if len(target) != NODE_ID_LEN:
        raise ValueError("target must be a 64-byte node id")
    return encode_packet(private_key, FINDNODE, [target, _expiration()])


def decode_neighbors(payload: list) -> list[PeerInfo]:
    peers = []
    for entry in payload[0]:
        ip, udp_port, _tcp, node_id = entry
        peers.append(PeerInfo(node_id=bytes(node_id), ip=_decode_ip(bytes(ip)),
                              port=_to_int(bytes(udp_port))))
    return peers


class UdpV4Transport:
    """DiscoveryTransport over real UDP sockets."""

    def __init__(self, private_key: bytes, bind: tuple[str, int] = ("0.0.0.0", 0),
                 ping_timeout: float = 1.0, query_timeout: float = 2.0,
                 neighbor_k: int = 16):
        self.private_key = private_key
        self.node_id = public_key(private_key)
        self.ping_timeout = ping_timeout
        self.query_timeout = query_timeout
        self.neighbor_k = neighbor_k
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._sock.bind(bind)
        self._local = self._sock.getsockname()

    def close(self) -> None:
        self._sock.close()

    def _recv_until(self, deadline: float,
                    want_type: int) -> tuple[bytes, list] | None:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            self._sock.settimeout(remaining)
            try:
                data, _addr = self._sock.recvfrom(1500)
            except socket.timeout:
                return None
            try:
                sender, ptype, payload = decode_packet(data)
            except (ValueError, rlp.RlpDecodingError) as exc:
                log.debug("discarding malformed packet: %s", exc)
                continue
            if ptype == PING:  # stay polite: answer pings so peers keep talking
                self._sock.sendto(
                    encode_pong(self.private_key, (self._local[0],
                                                   self._local[1]), data[:32]),
                    _addr)
                continue
            if ptype == want_type:
                return sender, payload

    def ping_pong(self, peer: PeerInfo) -> bool:
        packet = encode_ping(self.private_key,
                             (self._local[0], self._local[1]),
                             (peer.ip, peer.port))
        self._sock.sendto(packet, (peer.ip, peer.port))
        deadline = time.monotonic() + self.ping_timeout
        while True:
            answer = self._recv_until(deadline, PONG)
            if answer is None:
                return False
            _sender, payload = answer
            if len(payload) >= 2 and bytes(payload[1]) == packet[:32]:
                return True

    def find_node(self, peer: PeerInfo, target: bytes) -> list[PeerInfo]:
        self._sock.sendto(encode_findnode(self.private_key, target),
                          (peer.ip, peer.port))
        deadline = time.monotonic() + self.query_timeout
        found: list[PeerInfo] = []
        while len(found) < self.neighbor_k:
            answer = self._recv_until(deadline, NEIGHBORS)
            if answer is None:
                break
            sender, payload = answer
            if sender == peer.node_id:  # any other node's list answers nothing
                found.extend(decode_neighbors(payload))
        return found[:self.neighbor_k]
