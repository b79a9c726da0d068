import numpy as np
import pytest

from ssfourier import IFSDescriptor


@pytest.fixture
def bernoulli_half():
    """Uniform measure on [-2, 2]: the lambda = 1/2 Bernoulli convolution."""
    return IFSDescriptor(0.5, (-1.0, 1.0), (0.5, 0.5))


@pytest.fixture
def complex_bernoulli():
    return IFSDescriptor((1 + 1j) / 2, (-1.0, 1.0), (0.5, 0.5))


@pytest.fixture
def unit_square():
    """lambda = 1/2 with digits {0, 1, i, 1+i}: uniform on [0, 2]^2."""
    return IFSDescriptor(0.5, (0.0, 1.0, 1j, 1 + 1j), (0.25, 0.25, 0.25, 0.25))


@pytest.fixture
def sierpinski():
    return IFSDescriptor(0.5, (0.0, 1.0, 1j), (1 / 3, 1 / 3, 1 / 3))


def random_two_digit_ifs(rng: np.random.Generator) -> IFSDescriptor:
    """Random non-real two-digit system with |lambda| in [0.15, 0.4].

    The modulus cap keeps depth-25 truncation tails below 1e-7 at
    |xi| <= 20, so product/atom-sum comparisons have honest tolerances.
    """
    r = rng.uniform(0.15, 0.4)
    theta = rng.uniform(0.15, np.pi - 0.15)
    lam = r * np.exp(1j * theta)
    digits = tuple(rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1) for _ in range(2))
    p1 = rng.uniform(0.25, 0.75)
    return IFSDescriptor(lam, digits, (p1, 1.0 - p1))


def measure_to_csv(mu) -> str:
    """The CSV text ``measure_from_csv`` reads, every float written by repr."""
    rows = zip(mu.positions.tolist(), mu.weights.tolist())
    return "re,im,weight\n" + "".join(f"{z.real!r},{z.imag!r},{w!r}\n" for z, w in rows)
