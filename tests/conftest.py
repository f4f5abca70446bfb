import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import cuntzlim
from cuntzlim import Element, GaussianRational, GenHom, mono, zero


def random_word(rng: random.Random, n: int, max_len: int):
    return tuple(rng.randint(1, n) for _ in range(rng.randint(0, max_len)))


def random_scalar(rng: random.Random) -> GaussianRational:
    return GaussianRational(
        Fraction(rng.randint(-4, 4), rng.randint(1, 4)),
        Fraction(rng.randint(-2, 2), rng.randint(1, 3)),
    )


def random_element(rng: random.Random, tag, max_terms=4, max_len=3) -> Element:
    n = tag.ngens if tag.is_finite else 6
    e = zero(tag)
    for _ in range(rng.randint(0, max_terms)):
        l = random_word(rng, n, max_len)
        r = random_word(rng, n, max_len)
        e = e + random_scalar(rng) * mono(tag, l, r)
    return e


def random_table(rng: random.Random, tag, max_terms=6, max_len=3) -> dict:
    """Raw term table over a finite tag, not in canonical form, with a full
    sibling set {(J.i, K.i)} mixed in half of the time so that rewrites
    cascade."""
    n = tag.ngens
    table = {}
    for _ in range(rng.randint(0, max_terms)):
        key = (random_word(rng, n, max_len), random_word(rng, n, max_len))
        table[key] = random_scalar(rng)
    if rng.random() < 0.5:
        l, r = random_word(rng, n, max_len - 1), random_word(rng, n, max_len - 1)
        for i in range(1, n + 1):
            table[l + (i,), r + (i,)] = random_scalar(rng)
    return table


def run_python(*args, timeout=None):
    """python with args in a child process that imports the same package as
    the tests."""
    src = os.path.dirname(os.path.dirname(cuntzlim.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=timeout, env=dict(os.environ, PYTHONPATH=path))


def uncoded(h):
    """h as a plain GenHom on its images: no word table and no digit code."""
    return GenHom(h.domain, h.codomain, h.image)


@pytest.fixture
def rng():
    return random.Random(20260826)


def pytest_terminal_summary(terminalreporter):
    """Emit the acceptance pass/fail lines even under output capture."""
    try:
        from test_acceptance import ACCEPTANCE_LINES
    except ImportError:
        return
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
