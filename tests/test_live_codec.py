"""Wire codec for the UDP discovery protocol: signing, packets, parsing."""

import random
import socket
import threading

import pytest

from chainlens.discovery.identity import NODE_ID_LEN, PeerInfo
from chainlens.discovery.live import (FINDNODE, NEIGHBORS, PING,
                                      UdpV4Transport, decode_neighbors,
                                      decode_packet, encode_findnode,
                                      encode_packet, encode_ping,
                                      encode_pong, public_key,
                                      recover_node_id, sign_recoverable)
from chainlens.keccak import keccak256
from chainlens import rlp

# generator coordinates, the public key of private key 1
_G_X = "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798"
_G_Y = "483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8"


def test_public_key_of_one_is_generator():
    key = public_key((1).to_bytes(32, "big"))
    assert key.hex() == _G_X + _G_Y


def test_public_key_rejects_out_of_range():
    with pytest.raises(ValueError):
        public_key(b"\x00" * 32)


def test_sign_recover_roundtrip():
    rng = random.Random(4)
    for _ in range(8):
        private_key = rng.randbytes(32)
        if not 0 < int.from_bytes(private_key, "big") < 2**255:
            continue
        digest = keccak256(rng.randbytes(50))
        signature = sign_recoverable(digest, private_key)
        assert len(signature) == 65
        assert recover_node_id(digest, signature) == public_key(private_key)


def test_signature_is_low_s():
    n = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
    signature = sign_recoverable(keccak256(b"msg"), (7).to_bytes(32, "big"))
    s = int.from_bytes(signature[32:64], "big")
    assert s <= n // 2


def test_recover_rejects_garbage():
    with pytest.raises(ValueError):
        recover_node_id(keccak256(b"m"), b"\x00" * 65)
    with pytest.raises(ValueError):
        recover_node_id(keccak256(b"m"), b"\x01" * 64)


def test_ping_packet_roundtrip():
    private_key = (12345).to_bytes(32, "big")
    packet = encode_ping(private_key, ("10.0.0.1", 30303),
                         ("203.0.113.5", 30303))
    sender, packet_type, payload = decode_packet(packet)
    assert sender == public_key(private_key)
    assert packet_type == PING
    assert bytes(payload[0]) == rlp.encode_uint(4)  # protocol version


def test_findnode_packet_roundtrip():
    private_key = (99).to_bytes(32, "big")
    target = bytes(range(64))
    packet = encode_findnode(private_key, target)
    _, packet_type, payload = decode_packet(packet)
    assert packet_type == FINDNODE
    assert bytes(payload[0]) == target


def test_findnode_rejects_short_target():
    with pytest.raises(ValueError):
        encode_findnode((5).to_bytes(32, "big"), b"short")


def test_tampered_packet_rejected():
    private_key = (42).to_bytes(32, "big")
    packet = bytearray(encode_pong(private_key, ("203.0.113.7", 30303),
                                   keccak256(b"echo")))
    packet[-1] ^= 0x01
    with pytest.raises(ValueError):
        decode_packet(bytes(packet))
    with pytest.raises(ValueError):
        decode_packet(bytes(packet[:90]))


def test_decode_neighbors():
    rng = random.Random(5)
    entries = []
    peers_in = []
    for i in range(3):
        node_id = rng.randbytes(NODE_ID_LEN)
        ip = f"198.51.100.{i + 1}"
        entries.append([bytes([198, 51, 100, i + 1]),
                        rlp.encode_uint(30301 + i), rlp.encode_uint(0),
                        node_id])
        peers_in.append((node_id, ip, 30301 + i))
    payload = [entries, rlp.encode_uint(9999999999)]
    decoded = decode_neighbors(payload)
    assert [(p.node_id, p.ip, p.port) for p in decoded] == peers_in


def test_udp_transport_ping_timeout():
    transport = UdpV4Transport(private_key=(7).to_bytes(32, "big"),
                               bind=("127.0.0.1", 0), ping_timeout=0.05,
                               query_timeout=0.05)
    try:
        # a port that nothing on localhost answers
        silent = PeerInfo(node_id=b"\x01" * 64, ip="127.0.0.1", port=9)
        assert transport.run([("ping", silent)], []) == [False]
    finally:
        transport.close()


def _neighbors_packet(private_key, peers):
    entries = [[bytes(map(int, p.ip.split("."))), rlp.encode_uint(p.port),
                rlp.encode_uint(p.port), p.node_id] for p in peers]
    return encode_packet(private_key, NEIGHBORS,
                         [entries, rlp.encode_uint(9999999999)])


def _respond(sock, private_key, neighbors, stranger_key, strangers, stop):
    """Answer each PING with a PONG, and each FINDNODE first with a stranger's
    NEIGHBORS and then with this node's own."""
    while not stop.is_set():
        try:
            data, addr = sock.recvfrom(1500)
        except socket.timeout:
            continue
        _sender, ptype, _payload = decode_packet(data)
        if ptype == PING:
            sock.sendto(encode_pong(private_key, addr, data[:32]), addr)
        elif ptype == FINDNODE:
            sock.sendto(_neighbors_packet(stranger_key, strangers), addr)
            sock.sendto(_neighbors_packet(private_key, neighbors), addr)


def test_udp_transport_on_loopback():
    rng = random.Random(6)
    peer_key, stranger_key = (11).to_bytes(32, "big"), (13).to_bytes(32, "big")
    neighbors = [PeerInfo(rng.randbytes(NODE_ID_LEN), f"198.51.100.{i}",
                          30301 + i) for i in range(1, 4)]
    strangers = [PeerInfo(rng.randbytes(NODE_ID_LEN), f"203.0.113.{i}", 9)
                 for i in range(1, 3)]
    responder = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    responder.bind(("127.0.0.1", 0))
    responder.settimeout(0.05)
    closed = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    closed.bind(("127.0.0.1", 0))
    closed_port = closed.getsockname()[1]
    closed.close()
    stop = threading.Event()
    thread = threading.Thread(target=_respond, args=(
        responder, peer_key, neighbors, stranger_key, strangers, stop))
    transport = UdpV4Transport(private_key=(7).to_bytes(32, "big"),
                               bind=("127.0.0.1", 0), ping_timeout=5.0,
                               query_timeout=5.0, neighbor_k=3)
    thread.start()
    try:
        peer = PeerInfo(public_key(peer_key), "127.0.0.1",
                        responder.getsockname()[1])
        assert transport.run([("ping", peer)], []) == [True]
        # the stranger's list arrives first and is not taken as the answer
        assert transport.run([("find", peer)], [
            rng.randbytes(NODE_ID_LEN)]) == [(neighbors, False)]
        transport.ping_timeout = transport.query_timeout = 0.05
        silent = PeerInfo(peer.node_id, "127.0.0.1", closed_port)
        assert transport.run([("ping", silent)], []) == [False]
        [(found, _failed)] = transport.run([("find", silent)], [
            rng.randbytes(NODE_ID_LEN)])
        assert found == []
    finally:
        stop.set()
        thread.join(timeout=5.0)
        transport.close()
        responder.close()
    assert not thread.is_alive()


def test_udp_find_fails_only_without_neighbors():
    # a find whose queries all reach their deadline unanswered fails; one
    # whose peer sent a NEIGHBORS packet, even a short one, does not
    rng = random.Random(7)
    peer_key = (11).to_bytes(32, "big")
    neighbors = [PeerInfo(rng.randbytes(NODE_ID_LEN), "198.51.100.1", 30301)]
    responder = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    responder.bind(("127.0.0.1", 0))
    responder.settimeout(0.05)
    closed = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    closed.bind(("127.0.0.1", 0))
    closed_port = closed.getsockname()[1]
    closed.close()
    stop = threading.Event()
    thread = threading.Thread(target=_respond, args=(
        responder, peer_key, neighbors, peer_key, [], stop))
    transport = UdpV4Transport(private_key=(7).to_bytes(32, "big"),
                               bind=("127.0.0.1", 0), ping_timeout=0.05,
                               query_timeout=0.05, neighbor_k=3)
    thread.start()
    try:
        targets = [rng.randbytes(NODE_ID_LEN) for _ in range(2)]
        silent = PeerInfo(public_key(peer_key), "127.0.0.1", closed_port)
        assert transport.run([("ping", silent), ("find", silent)],
                             targets) == [False, ([], True)]
        # one entry of the k = 3 asked for: the query waits out its deadline
        transport.query_timeout = 2.0
        short = PeerInfo(public_key(peer_key), "127.0.0.1",
                         responder.getsockname()[1])
        assert transport.run([("find", short)], targets[:1]) == \
            [(neighbors, False)]
    finally:
        stop.set()
        thread.join(timeout=5.0)
        transport.close()
        responder.close()
    assert not thread.is_alive()
