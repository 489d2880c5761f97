"""Live UDP discovery transport speaking the v4 wire protocol.

Packet layout: hash(32) || signature(65) || packet-type(1) || RLP payload,
where hash = Keccak-256 of everything after it and the signature is a
recoverable secp256k1 signature over Keccak-256(type || payload). A node's
identity is its uncompressed public key (64 bytes), so every valid packet
identifies its sender.

This transport exists for real networks; its tests reach no further than
127.0.0.1. Its one entry point, `run`, answers a crawl's batch of
requests from one receive loop over its one socket, which gives each reply
to the request it answers.
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
    # Q = r^-1 (s R - z G), with r^-1 taken into both scalars
    point = _point_add(_point_mul((r, y), s * r_inv % _N),
                       _point_mul((_GX, _GY), -z * r_inv % _N))
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
    """The peers a NEIGHBORS payload lists; ValueError if one is malformed."""
    try:
        return [PeerInfo(node_id=bytes(node_id),
                         ip=str(ipaddress.ip_address(bytes(ip))),
                         port=int.from_bytes(bytes(udp_port), "big"))
                for ip, udp_port, _tcp, node_id in payload[0]]
    except (TypeError, IndexError) as exc:
        raise ValueError(f"malformed NEIGHBORS payload: {exc}") from exc


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

    def _send(self, packet: bytes, addr: tuple[str, int]) -> bool:
        try:
            self._sock.sendto(packet, addr)
        except OSError as exc:
            log.debug("cannot send to %s:%s: %s", *addr, exc)
            return False
        return True

    def run(self, tasks: list[tuple[str, PeerInfo]],
            targets: list[bytes]) -> list:
        """`DiscoveryTransport.run`, every request open at once.

        A PONG answers the ping whose hash it echoes. A find asks its peer
        one target at a time, as NEIGHBORS names no target, and takes up to
        k entries from that peer alone until k or query_timeout. A failed
        send, a malformed NEIGHBORS entry or a query that reaches its
        deadline with no NEIGHBORS packet fails its own task only.
        """
        found: list[list[PeerInfo]] = [[] for _ in tasks]
        failed = [kind == "ping" for kind, _peer in tasks]  # until a PONG
        # ping hash or peer id -> [deadline, task, targets asked, entries],
        # entries None until a NEIGHBORS packet comes
        waiting: dict[bytes, list] = {}

        def ask(i: int, asked: int = 0) -> None:
            """Send task i's next request, if it has one."""
            kind, peer = tasks[i]
            if kind == "ping":
                packet = encode_ping(self.private_key, self._local,
                                     (peer.ip, peer.port))
                key, timeout = packet[:32], self.ping_timeout
            elif asked < len(targets):
                packet = encode_findnode(self.private_key, targets[asked])
                key, timeout = peer.node_id, self.query_timeout
            else:
                return
            if self._send(packet, (peer.ip, peer.port)):
                waiting[key] = [time.monotonic() + timeout, i, asked + 1,
                                None]
            else:
                failed[i] = True

        def close(key: bytes, fault: bool = False) -> None:
            """End an open request; a find then asks its next target."""
            _deadline, i, asked, entries = waiting.pop(key)
            if tasks[i][0] == "find":
                found[i] += (entries or [])[:self.neighbor_k]
                failed[i] |= fault
                ask(i, asked)

        for i in range(len(tasks)):
            ask(i)
        while waiting:
            key = min(waiting, key=lambda key: waiting[key][0])
            timeout = waiting[key][0] - time.monotonic()
            if timeout <= 0:
                close(key, fault=waiting[key][3] is None)
                continue
            self._sock.settimeout(timeout)
            try:
                data, addr = self._sock.recvfrom(1500)
                sender, ptype, payload = decode_packet(data)
            except socket.timeout:
                continue
            except ValueError as exc:
                log.debug("discarding malformed packet: %s", exc)
                continue
            if ptype == PING:  # stay polite: answer pings so peers keep talking
                self._send(encode_pong(self.private_key, self._local,
                                       data[:32]), addr)
            elif (ptype == PONG and len(payload) > 1 and isinstance(
                    payload[1], bytes) and len(payload[1]) == 32
                    and payload[1] in waiting):
                failed[waiting.pop(payload[1])[1]] = False
            elif ptype == NEIGHBORS and sender in waiting:
                request = waiting[sender]
                try:
                    request[3] = (request[3] or []) + decode_neighbors(payload)
                except ValueError as exc:
                    log.debug("malformed NEIGHBORS from %s: %s", addr, exc)
                    close(sender, fault=True)
                    continue
                if len(request[3]) >= self.neighbor_k:
                    close(sender)
        return [not failed[i] if kind == "ping" else (found[i], failed[i])
                for i, (kind, _peer) in enumerate(tasks)]
