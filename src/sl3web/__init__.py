"""Webs for the sl3 spider: bracket evaluation, red graphs, reductions."""

__version__ = "0.1.0"
