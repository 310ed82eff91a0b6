"""Fuzzy matching of sign text between agents.

Two observations of the same physical sign rarely agree byte for byte once
OCR noise is involved, so candidate pairs are scored with a normalized edit
distance; the text gate (place_recognition.match_all) compares that score
with a threshold alpha. text_similarity scores one pair; text_similarities
scores a batch with the same rule, running the edit-distance DP once per
distinct pair and for all of them at once in integer arrays
(edit_distances). The OCR corruption model used by the simulator lives here
too, next to the matcher it exercises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

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


def edit_distances(pairs: Sequence[tuple[str, str]]) -> np.ndarray:
    """edit_distance of every pair, one DP row at a time for all pairs.

    Each string is encoded once, as a row of code points padded to the
    longest. A pair's distance is read from the DP row of its first
    string's length, at its second string's length, so the padding never
    reaches it. Within a row the deletion chain
    cur[j] = min(t[j], cur[j - 1] + 1) is a running minimum of t[j] - j,
    plus j. Integer arithmetic throughout, so the distances are exactly
    edit_distance's.
    """
    strings: dict[str, int] = {}
    first = np.array([strings.setdefault(a, len(strings)) for a, _ in pairs], dtype=np.intp)
    second = np.array([strings.setdefault(b, len(strings)) for _, b in pairs], dtype=np.intp)
    lengths = np.array([len(text) for text in strings], dtype=np.int64)
    codes = np.full((int(lengths.max(initial=0)), len(strings)), -1, dtype=np.int64)
    for k, text in enumerate(strings):
        codes[: len(text), k] = [ord(c) for c in text]
    len_a, len_b = lengths[first], lengths[second]
    chars_b = codes[: int(len_b.max(initial=0))][:, second]  # one column per pair
    steps = np.arange(chars_b.shape[0] + 1, dtype=np.int64)[:, None]
    row = np.repeat(steps, len(pairs), axis=1)
    distances = len_b.copy()  # the pairs whose first string is empty
    columns = np.arange(len(pairs))
    for i in range(int(len_a.max(initial=0))):
        t = np.empty_like(row)
        t[0] = i + 1
        np.minimum(row[1:] + 1, row[:-1] + (codes[i, first] != chars_b), out=t[1:])
        row = np.minimum.accumulate(t - steps, axis=0) + steps
        done = len_a == i + 1
        distances[done] = row[len_b[done], columns[done]]
    return distances


def text_similarities(pairs: Sequence[tuple[str, str]]) -> list[TextMatchScore]:
    """text_similarity of every pair, each distinct pair's DP run once.

    Pairs are told apart after upper-casing and without regard to order
    (edit distance is symmetric), and all distinct ones go through one
    edit_distances call. Raises like text_similarity when a pair is two
    empty strings.
    """
    raw: dict[tuple[str, str], int] = {}
    slots = [raw.setdefault(pair, len(raw)) for pair in pairs]
    distinct: dict[tuple[str, str], int] = {}
    raw_to_distinct = []
    for a, b in raw:
        if not a and not b:
            raise ValueError("text similarity is undefined for two empty strings")
        a, b = a.upper(), b.upper()
        raw_to_distinct.append(distinct.setdefault((a, b) if a <= b else (b, a), len(distinct)))
    scores = []
    for (a, b), d in zip(distinct, edit_distances(list(distinct)).tolist()):
        longest = max(len(a), len(b))
        scores.append((longest - d) / longest)
    return [scores[raw_to_distinct[slot]] for slot in slots]


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
