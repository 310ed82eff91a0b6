"""Edit distance, similarity scoring, and OCR corruption."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from textwifi_slam.config import RunConfig
from textwifi_slam.place_recognition import Verdict, decide_match
from textwifi_slam.text_matching import (
    CORRUPTION_ALPHABET,
    corrupt_text,
    edit_distance,
    edit_distances,
    text_similarities,
    text_similarity,
)

from conftest import make_keyframe

short_text = st.text(alphabet="abcN0-", max_size=8)


def reference_distance(a: str, b: str) -> int:
    """Textbook full-table Levenshtein, kept deliberately naive."""
    m, n = len(a), len(b)
    table = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        table[i][0] = i
    for j in range(n + 1):
        table[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            table[i][j] = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + cost,
            )
    return table[m][n]


@pytest.mark.parametrize(
    "a, b, expected",
    [
        ("", "", 0),
        ("abc", "", 3),
        ("", "abc", 3),
        ("kitten", "sitting", 3),
        ("saturday", "sunday", 3),
        ("flaw", "lawn", 2),
        ("ROOM A-103", "ROOM A-104", 1),
        ("same", "same", 0),
    ],
)
def test_edit_distance_fixtures(a, b, expected):
    assert edit_distance(a, b) == expected


@given(short_text, short_text)
def test_edit_distance_matches_reference(a, b):
    assert edit_distance(a, b) == reference_distance(a, b)


@given(short_text, short_text)
def test_edit_distance_symmetry_and_bounds(a, b):
    d = edit_distance(a, b)
    assert d == edit_distance(b, a)
    assert abs(len(a) - len(b)) <= d <= max(len(a), len(b), 0)
    assert (d == 0) == (a == b)


@given(short_text, short_text, short_text)
def test_edit_distance_triangle_inequality(a, b, c):
    assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)


@given(st.lists(st.tuples(short_text, short_text), max_size=12))
@example([])
@example([("", ""), ("", "abc"), ("abc", ""), ("kitten", "sitting")])
def test_edit_distances_equal_edit_distance(pairs):
    assert edit_distances(pairs).tolist() == [edit_distance(a, b) for a, b in pairs]


# Mixed case, and characters whose upper case is longer ("ß" -> "SS").
mixed_text = st.text(alphabet="abcABN0- ßé", max_size=8)


@given(st.lists(st.tuples(mixed_text, mixed_text).filter(any), max_size=12))
@example([("", "ROOM"), ("room", ""), ("Exit", "EXIT"), ("EXIT", "exit"), ("straße", "STRASSE")])
def test_text_similarities_equal_text_similarity(pairs):
    batch = text_similarities(pairs)
    assert [repr(score) for score in batch] == [repr(text_similarity(a, b)) for a, b in pairs]


def test_text_similarities_raise_on_two_empty_strings():
    with pytest.raises(ValueError, match="two empty strings"):
        text_similarity("", "")
    with pytest.raises(ValueError, match="two empty strings"):
        text_similarities([("ROOM", "room"), ("", "")])


def test_similarity_fixtures():
    assert text_similarity("ROOM A-101", "ROOM A-101") == 1.0
    assert text_similarity("room a-101", "ROOM A-101") == 1.0
    assert text_similarity("ROOM A-103", "ROOM A-104") == pytest.approx(0.9)
    assert text_similarity("", "abcd") == 0.0


def test_similarity_case_sensitive_mode():
    # Matching is always case-insensitive; there is no case-sensitive mode.
    assert text_similarity("abc", "ABC") == 1.0
    assert text_similarity("Fire Exit", "FIRE EXIT") == 1.0
    assert text_similarity("abc", "ABD") == text_similarity("ABC", "ABD")


def test_similarity_undefined_for_two_empty_strings():
    with pytest.raises(ValueError):
        text_similarity("", "")


def test_match_threshold_is_inclusive():
    # One edit over ten characters scores exactly 0.9, which passes the text
    # gate of decide_match at alpha = 0.9 and fails it just above.
    a = make_keyframe("a0", 0, 0.0, text="ROOM A-103")
    b = make_keyframe("a1", 0, 0.0, text="ROOM A-104")
    at = decide_match(a, b, RunConfig(alpha=0.9).thresholds())
    assert at.text_score == 0.9
    assert at.verdict is Verdict.ACCEPTED
    above = decide_match(a, b, RunConfig(alpha=0.9 + 1e-9).thresholds())
    assert above.verdict is Verdict.REJECTED_TEXT
    x, y = make_keyframe("a0", 0, 0.0, text="x"), make_keyframe("a1", 0, 0.0, text="y")
    assert decide_match(x, y, RunConfig(alpha=0.0).thresholds()).verdict is Verdict.ACCEPTED


def test_corrupt_text_clean_passthrough():
    rng = np.random.default_rng(0)
    assert corrupt_text("EXIT 4", 0.0, 0.0, 0.0, rng) == "EXIT 4"


def test_corrupt_text_is_deterministic_given_generator():
    a = corrupt_text("STAIR B", 0.2, 0.1, 0.1, np.random.default_rng(42))
    b = corrupt_text("STAIR B", 0.2, 0.1, 0.1, np.random.default_rng(42))
    assert a == b


def test_corrupt_text_extremes():
    rng = np.random.default_rng(1)
    assert corrupt_text("TEXT", 0.0, 1.0, 0.0, rng) == ""
    substituted = corrupt_text("TEXT", 1.0, 0.0, 0.0, np.random.default_rng(2))
    assert len(substituted) == 4
    assert all(ch in CORRUPTION_ALPHABET for ch in substituted)


def test_corrupt_text_rejects_bad_probabilities():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        corrupt_text("A", -0.1, 0.0, 0.0, rng)
    with pytest.raises(ValueError):
        corrupt_text("A", 0.5, 0.4, 0.2, rng)
