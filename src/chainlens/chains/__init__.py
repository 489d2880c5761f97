"""Namecoin and Peercoin chain analytics."""
