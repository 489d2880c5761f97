"""Peer-discovery crawling: identity math, crawl loop, simulator, live transport."""
