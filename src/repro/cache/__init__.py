"""Cache substrate: set-associative caches, MESI coherence, hierarchy.

The paper's system (Table 1) has a 4-level hierarchy: private L1/L2 per
core, shared L3/L4, 64 B blocks, LRU, MESI coherence. Every level, and
the counter cache, is one :class:`SetAssociativeCache`: an LRU tag store
with one recency-ordered dict per set. The coherence directory keeps
one int per block (sharer bitmask and MESI state). The
hierarchy is inclusive with back-invalidation; authoritative data for
the whole hierarchy is kept at the last level (upper levels are
tag-only), which preserves functional correctness and hit/miss timing
while keeping the model fast. The counter (IV) cache is a specialised
cache over per-page counter blocks.
"""

from .cache import SetAssociativeCache, CacheStats
from .coherence import MESIState, CoherenceDirectory
from .hierarchy import CacheHierarchy, PageInvalidation
from .counter_cache import CounterCache

__all__ = [
    "CacheHierarchy",
    "CacheStats",
    "CoherenceDirectory",
    "CounterCache",
    "MESIState",
    "PageInvalidation",
    "SetAssociativeCache",
]
