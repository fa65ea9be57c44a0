import numpy as np
import pytest

from haarmoments.linalg import haar_batches


@pytest.fixture
def gen():
    return np.random.default_rng(20240817)


def random_complex(gen, d):
    return gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))


def random_hermitian(gen, d):
    a = random_complex(gen, d)
    return (a + a.conj().T) / 2


def random_state(gen, d):
    a = random_complex(gen, d)
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def haar_unitaries(d, n, rng):
    """The n unitaries of ``haar_batches`` as one (n, d, d) stack."""
    return np.concatenate(list(haar_batches(d, n, rng)))
