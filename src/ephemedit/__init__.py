"""Pattern matching in texts under ephemeral edits.

The index is built once over an immutable text; every query names a single
edit (insert, delete, or substitute) that is applied virtually, answered,
and forgotten.
"""

from .edits import Delete, EditOp, Insert, Substitute, edited_length, validate_edit
from .ephemeral_index import (
    EphemeralTextIndex,
    PatternHandle,
    occurrence_classes,
    occurrences_after,
    preprocess_pattern,
    preprocess_text,
)
from .pm_block_delete import BlockDeleteMatcher
from .pm_ephemeral_edits import EditMatcher, Sma
from .prefix_suffix import ArithmeticProgression, PrefSufIndex
from .text_core import AlphabetError, SaInterval, Text, TextIndex

__all__ = [
    "AlphabetError",
    "ArithmeticProgression",
    "BlockDeleteMatcher",
    "Delete",
    "EditMatcher",
    "EditOp",
    "EphemeralTextIndex",
    "Insert",
    "PatternHandle",
    "PrefSufIndex",
    "SaInterval",
    "Sma",
    "Substitute",
    "Text",
    "TextIndex",
    "edited_length",
    "occurrence_classes",
    "occurrences_after",
    "preprocess_pattern",
    "preprocess_text",
    "validate_edit",
]

__version__ = "0.1.0"
