"""The end-to-end paths still give the golden outputs captured at seed 0
(tests/data/golden/capture.py holds the set, its tolerances and how to
capture it again)."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parent / "data" / "golden" / "capture.py"
_spec = importlib.util.spec_from_file_location("golden_capture", SCRIPT)
capture = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(capture)


@pytest.fixture(scope="module")
def stored():
    with np.load(capture.GOLDEN) as data:
        return dict(data)


def test_outputs_match_the_goldens(stored):
    assert capture.compare(capture.compute(), stored) == []


def test_the_set_is_small(stored):
    assert capture.GOLDEN.stat().st_size < 1_000_000
    assert set(capture.FIELDS) <= set(stored)


def test_a_drifted_field_is_caught(stored):
    """A field moved by twice the tolerance of its sup norm, or a scalar by
    twice its relative tolerance, is reported; one moved by half is not."""
    for key, factor, caught in (("trees.R2", 2.0, True), ("trees.R2", 0.5, False),
                                ("cumulant", 2.0, True), ("cumulant", 0.5, False)):
        want = stored[key]
        scale = np.abs(want).max() if key in capture.FIELDS else np.abs(want)
        got = dict(stored, **{key: want + factor * capture.TOLERANCE * scale})
        assert bool(capture.compare(got, stored)) == caught, (key, factor)
