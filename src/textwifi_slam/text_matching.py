"""Fuzzy matching of sign text between agents.

Two observations of the same physical sign rarely agree byte for byte once
OCR noise is involved, so candidate pairs are scored with a normalized edit
distance; the text gate (place_recognition.decide_match) compares that
score with a threshold alpha. The OCR corruption model used by
the simulator lives here too, next to the matcher it exercises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

# Score in [0, 1]; 1.0 means the strings are identical after canonicalization.
TextMatchScore = float

# Alphabet used for substituted and inserted characters in the OCR model.
CORRUPTION_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-"


@dataclass(frozen=True)
class TextObservation:
    """One detected piece of sign text.

    sign_id_truth identifies the physical sign instance that produced the
    detection. It is simulation provenance: the matcher never reads it, only
    the evaluation harness does.
    """

    timestamp: float
    agent_id: str
    text: str
    sign_id_truth: Optional[str] = None


def edit_distance(a: str, b: str) -> int:
    """Levenshtein distance with unit-cost insert, delete and substitute."""
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    previous_row = list(range(len(b) + 1))
    for i, ca in enumerate(a):
        current_row = [i + 1]
        for j, cb in enumerate(b):
            insertions = previous_row[j + 1] + 1
            deletions = current_row[j] + 1
            substitutions = previous_row[j] + (ca != cb)
            current_row.append(min(insertions, deletions, substitutions))
        previous_row = current_row
    return previous_row[-1]


def text_similarity(a: str, b: str) -> TextMatchScore:
    """Normalized similarity: (max length - edit distance) / max length.

    Comparison is case-insensitive (both strings are upper-cased first).
    Undefined when both strings are empty.
    """
    if not a and not b:
        raise ValueError("text similarity is undefined for two empty strings")
    a, b = a.upper(), b.upper()
    longest = max(len(a), len(b))
    return (longest - edit_distance(a, b)) / longest


def corrupt_text(
    truth: str,
    p_sub: float,
    p_del: float,
    p_ins: float,
    rng: np.random.Generator,
) -> str:
    """Apply character-level OCR noise to a ground-truth string.

    Each character is independently deleted with p_del, substituted with
    p_sub, kept otherwise; after each position a random character is inserted
    with p_ins. Deterministic given the generator state.
    """
    for name, p in (("p_sub", p_sub), ("p_del", p_del), ("p_ins", p_ins)):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {p}")
    if p_sub + p_del + p_ins > 1.0:
        raise ValueError("corruption probabilities must sum to at most 1 per position")
    out: list[str] = []
    n_alpha = len(CORRUPTION_ALPHABET)
    for ch in truth:
        u = rng.random()
        if u < p_del:
            pass
        elif u < p_del + p_sub:
            out.append(CORRUPTION_ALPHABET[int(rng.integers(n_alpha))])
        else:
            out.append(ch)
        if rng.random() < p_ins:
            out.append(CORRUPTION_ALPHABET[int(rng.integers(n_alpha))])
    return "".join(out)
