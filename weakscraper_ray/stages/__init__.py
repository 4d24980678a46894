"""Ray Data stage callables (map_batches functions / actor classes)."""

from .extract import Extractor

__all__ = ["Extractor"]
