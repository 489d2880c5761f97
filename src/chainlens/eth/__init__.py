"""Ethereum ledger analytics: contracts, classification, probing, similarity."""
