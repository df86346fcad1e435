"""Exact computations with root systems, weight multisets, formal-character
matching, and sumset factorizations, plus a CLI that replays the finite case
analyses behind the classification arguments."""

__version__ = "0.1.0"
