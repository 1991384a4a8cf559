import numpy as np
import pytest


@pytest.fixture
def count_svds(monkeypatch):
    """A list that gains one entry per np.linalg.svd call while the test runs."""
    # np.linalg.norm(M, 2) reaches svd through numpy's private module
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    private = getattr(np.linalg, "_linalg", None) or np.linalg.linalg  # numpy 1.x
    monkeypatch.setattr(np.linalg, "svd", counting)
    monkeypatch.setattr(private, "svd", counting)
    return calls
