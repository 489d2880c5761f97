"""The live UDP transport answering crawl batches over loopback.

Every responder runs on one thread. It reads the packet type and ping hash
from the raw packet, as it need not check the sender, and its NEIGHBORS
packet is signed beforehand, so it signs only PONGs as it serves and the
transport's own signature recovery is most of the cost.
"""

import selectors
import socket
import threading
import time
from contextlib import ExitStack, closing

from chainlens import rlp
from chainlens.discovery.crawler import CrawlConfig, crawl
from chainlens.discovery.identity import NODE_ID_LEN, PeerInfo
from chainlens.discovery.live import (FINDNODE, NEIGHBORS, PING,
                                      UdpV4Transport, encode_packet,
                                      encode_pong, public_key)

from test_live_codec import _neighbors_packet


def _serve(answers, stop):
    """Answer on every socket of `answers`, a socket -> (private key,
    NEIGHBORS packet or None) map: a PING with a PONG, and a FINDNODE with
    the packet, until `stop` is set."""
    with selectors.DefaultSelector() as selector:
        for sock in answers:
            selector.register(sock, selectors.EVENT_READ)
        while not stop.is_set():
            for key, _events in selector.select(timeout=0.05):
                data, addr = key.fileobj.recvfrom(1500)
                private_key, neighbors = answers[key.fileobj]
                if data[97] == PING:
                    key.fileobj.sendto(
                        encode_pong(private_key, addr, data[:32]), addr)
                elif data[97] == FINDNODE and neighbors is not None:
                    key.fileobj.sendto(neighbors, addr)


def _responders(stack, keys, neighbors_of):
    """A bound loopback socket and a peer for each key, answered by one
    thread until `stack` closes."""
    socks = [stack.enter_context(closing(socket.socket(
        socket.AF_INET, socket.SOCK_DGRAM))) for _ in keys]
    for sock in socks:
        sock.bind(("127.0.0.1", 0))
    peers = [PeerInfo(public_key(key), "127.0.0.1", sock.getsockname()[1])
             for key, sock in zip(keys, socks)]
    answers = {sock: (key, neighbors_of(i, key, peers))
               for i, (key, sock) in enumerate(zip(keys, socks))}
    stop = threading.Event()
    thread = threading.Thread(target=_serve, args=(answers, stop))
    thread.start()
    stack.callback(thread.join, 5.0)
    stack.callback(stop.set)
    return peers, thread


def test_loopback_crawl_admits_every_responder():
    # 32 pings, then 32 finds, open at once on one socket; each responder
    # lists two others, so every find ends at k
    keys = [(1000 + i).to_bytes(32, "big") for i in range(32)]
    with ExitStack() as stack:
        peers, thread = _responders(stack, keys, lambda i, key, peers:
                                    _neighbors_packet(key, [
                                        peers[(i + 1) % 32],
                                        peers[(i + 2) % 32]]))
        transport = stack.enter_context(closing(UdpV4Transport(
            (7).to_bytes(32, "big"), bind=("127.0.0.1", 0),
            ping_timeout=15.0, query_timeout=15.0, neighbor_k=2)))
        report = crawl(transport, peers, CrawlConfig(prefix_bits=0,
                                                     rng_seed=1))
    assert not thread.is_alive()
    assert transport._sock.fileno() == -1
    assert report.failed_endpoints == []
    assert ({p.node_id for p in report.known_peers}
            == {p.node_id for p in peers})


def test_faults_fail_only_their_own_task():
    # a responder that sends garbage and then a NEIGHBORS entry of three
    # fields, an address no AF_INET socket can send to, and a good peer
    keys = [(2000 + i).to_bytes(32, "big") for i in range(2)]

    def neighbors_of(i, key, peers):
        if i == 0:
            return _neighbors_packet(key, peers[1:])
        return encode_packet(key, NEIGHBORS, [
            [[bytes([127, 0, 0, 1]), rlp.encode_uint(30303), b""]],
            rlp.encode_uint(9999999999)])

    with ExitStack() as stack:
        (good, bad), _thread = _responders(stack, keys, neighbors_of)
        transport = stack.enter_context(closing(UdpV4Transport(
            (7).to_bytes(32, "big"), bind=("127.0.0.1", 0), ping_timeout=10.0,
            query_timeout=10.0, neighbor_k=1)))
        unsendable = PeerInfo(b"\x05" * NODE_ID_LEN, "::1", 30303)
        # garbage reaches the transport's socket first
        stack.enter_context(closing(socket.socket(
            socket.AF_INET, socket.SOCK_DGRAM))).sendto(
                b"\x00" * 200, transport._local)
        started = time.monotonic()
        results = transport.run(
            [("find", bad), ("ping", unsendable), ("find", unsendable),
             ("ping", good), ("find", good)],
            [b"\x01" * NODE_ID_LEN, b"\x02" * NODE_ID_LEN])
    # the good peer is asked for each target in turn, and lists bad twice
    assert results == [([], True), False, ([], True), True,
                       ([bad, bad], False)]
    # nothing waited for a timeout
    assert time.monotonic() - started < 10.0
