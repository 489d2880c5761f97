"""Ethereum ledger analytics: contracts, classification, probing, similarity."""

# the probe's default caller; `cli` shows it in `eth probe --help` without
# importing `probe`, which reaches numpy through `keccak`
DEFAULT_PROBE_CALLER = "00000000000000000000000000000000000000aa"
