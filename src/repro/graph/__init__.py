"""Heterogeneous network substrate: News-HSN, CV splits and walks."""

from .hsn import EdgeType, HeterogeneousNetwork, NodeType
from .random_walk import generate_walk_corpus, random_walk
from .sampling import (
    Split,
    load_tri_split,
    save_tri_split,
    TriSplit,
    k_fold_indices,
    k_fold_splits,
    stratified_k_fold_splits,
    tri_splits,
)

__all__ = [
    "HeterogeneousNetwork",
    "NodeType",
    "EdgeType",
    "random_walk",
    "generate_walk_corpus",
    "Split",
    "TriSplit",
    "k_fold_indices",
    "k_fold_splits",
    "stratified_k_fold_splits",
    "tri_splits",
    "save_tri_split",
    "load_tri_split",
]
