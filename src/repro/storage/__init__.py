"""Column-store substrate: schemas, tables, block layout, shuffling,
simulated I/O, and the cost model standing in for the paper's hardware."""

from .blocks import BlockLayout
from .cost_model import CACHELINE_BITS, DEFAULT_COST_MODEL, CostModel
from .io_manager import IOManager
from .schema import BinnedAttribute, CategoricalAttribute, Schema
from .shuffle import ShuffledTable, shuffle_table
from .table import ColumnTable

__all__ = [
    "BlockLayout",
    "CACHELINE_BITS",
    "DEFAULT_COST_MODEL",
    "CostModel",
    "IOManager",
    "BinnedAttribute",
    "CategoricalAttribute",
    "Schema",
    "ShuffledTable",
    "shuffle_table",
    "ColumnTable",
]
