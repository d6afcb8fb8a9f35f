import hypothesis
import numpy as np
import pytest

from sparsid import DictionarySpec, Sample, build_matrix

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=50, derandomize=True
)
hypothesis.settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def make_samples(rng, spec: DictionarySpec, coef, noise_std=0.0, n=100, t0=0.0):
    """Stream of samples whose observations follow y = Psi(x) @ coef + noise.

    coef has shape (n_columns, n_outputs).
    """
    coef = np.atleast_2d(np.asarray(coef, dtype=float))
    states = rng.normal(size=(n, spec.state_dim))
    out = []
    for i in range(n):
        row = build_matrix(spec, states[i][None])[0]
        y = row @ coef
        if noise_std > 0.0:
            y = y + noise_std * rng.normal(size=coef.shape[1])
        out.append(Sample(timestamp=t0 + float(i), state=states[i], observation=y))
    return out
