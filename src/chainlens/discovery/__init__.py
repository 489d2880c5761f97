"""Peer-discovery crawling: identity math, crawl loop, simulator, live transport."""

from .crawler import CrawlConfig, CrawlReport, DiscoveryTransport, crawl, endpoint_stats
from .identity import (NODE_ID_LEN, PeerInfo, hash_prefix, node_hash,
                       precompute_targets, select_neighbors)
from .simulator import GroundTruth, SimTransport, build_sim_overlay

__all__ = [
    "CrawlConfig", "CrawlReport", "DiscoveryTransport", "crawl", "endpoint_stats",
    "NODE_ID_LEN", "PeerInfo", "hash_prefix", "node_hash", "precompute_targets",
    "select_neighbors", "GroundTruth", "SimTransport", "build_sim_overlay",
]
