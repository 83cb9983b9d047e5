"""Brute-force descriptor matching with Lowe ratio and cross checks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .brief import hamming_distance

__all__ = ["Match", "match_descriptors"]


@dataclass(frozen=True)
class Match:
    """A putative correspondence between two descriptor sets."""

    query_index: int
    train_index: int
    distance: float


def match_descriptors(
    descriptors_query: np.ndarray,
    descriptors_train: np.ndarray,
    max_distance: int = 64,
    ratio: float = 0.8,
    cross_check: bool = True,
) -> list[Match]:
    """Match binary descriptors by Hamming distance.

    A match survives when (i) its distance is below ``max_distance``,
    (ii) it passes Lowe's ratio test against the second-best candidate and
    (iii) with ``cross_check``, the best match in the reverse direction
    agrees.  This mirrors ORB-SLAM's matching hygiene, which the paper's
    feature matching inherits.
    """
    if len(descriptors_query) == 0 or len(descriptors_train) == 0:
        return []
    distances = hamming_distance(descriptors_query, descriptors_train)
    queries = np.arange(len(distances))
    best_train = np.argmin(distances, axis=1)
    best_distance = distances[queries, best_train]

    keep = best_distance <= max_distance
    if distances.shape[1] > 1:
        # Ratio test against the best of the row with its winner masked.
        masked = distances.copy()
        masked[queries, best_train] = np.iinfo(masked.dtype).max
        keep &= ~(best_distance > ratio * masked.min(axis=1))
    if cross_check:
        keep &= np.argmin(distances, axis=0)[best_train] == queries
    kept = np.flatnonzero(keep)
    return [
        Match(query_index, train_index, distance)
        for query_index, train_index, distance in zip(
            kept.tolist(),
            best_train[kept].tolist(),
            best_distance[kept].astype(float).tolist(),
        )
    ]


def _match_descriptors_reference(
    descriptors_query: np.ndarray,
    descriptors_train: np.ndarray,
    max_distance: int = 64,
    ratio: float = 0.8,
    cross_check: bool = True,
) -> list[Match]:
    """Per-query loop form of :func:`match_descriptors` (equivalence oracle)."""
    if len(descriptors_query) == 0 or len(descriptors_train) == 0:
        return []
    distances = hamming_distance(descriptors_query, descriptors_train)

    best_train = np.argmin(distances, axis=1)
    best_distance = distances[np.arange(len(distances)), best_train]

    matches: list[Match] = []
    single_train = distances.shape[1] == 1
    if cross_check:
        best_query_for_train = np.argmin(distances, axis=0)
    for query_index in range(distances.shape[0]):
        train_index = int(best_train[query_index])
        distance = float(best_distance[query_index])
        if distance > max_distance:
            continue
        if not single_train:
            row = distances[query_index].copy()
            row[train_index] = np.iinfo(row.dtype).max
            second = float(row.min())
            if distance > ratio * second:
                continue
        if cross_check and int(best_query_for_train[train_index]) != query_index:
            continue
        matches.append(Match(query_index, train_index, distance))
    return matches
