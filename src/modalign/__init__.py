"""Multimodal timeline alignment engine.

Discretizes continuous modalities (audio pitch, head pose) into
timestamped elements, aligns them across modalities with interval joins,
answers cross-modal queries, and runs the downstream statistics a corpus
analysis needs (fixed-effects regression, log-odds lexical comparison).
"""

from .timeline import (
    AlignedPair,
    AlignmentMap,
    Cardinality,
    Element,
    ElementStream,
    Modality,
    QueryHits,
    build_stream,
    join_streams,
    query_crossmodal,
)

__all__ = [
    "AlignedPair",
    "AlignmentMap",
    "Cardinality",
    "Element",
    "ElementStream",
    "Modality",
    "QueryHits",
    "build_stream",
    "join_streams",
    "query_crossmodal",
]

__version__ = "0.1.0"
