"""Bitmap-index substrate: bit-per-block presence bitmaps (Section 4.1) and
per-block density maps (Appendix A.1.2)."""

from .bitmap_index import BlockBitmapIndex
from .builder import build_bitmap_index, build_density_map, build_indexes
from .density_map import DensityMap

__all__ = [
    "BlockBitmapIndex",
    "DensityMap",
    "build_bitmap_index",
    "build_density_map",
    "build_indexes",
]
