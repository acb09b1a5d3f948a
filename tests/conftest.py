"""Fixtures shared by the test suite; its generators and oracles are in
:mod:`ratpencil_testkit`."""

import random

import pytest


@pytest.fixture
def rng():
    return random.Random(20240817)
