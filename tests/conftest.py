import json

import numpy as np
import pytest
from scipy.sparse import _sparsetools

from phwell.config import system_to_dict


def write_config(sys, path) -> None:
    """Write a system as the JSON config file that phwell reads."""
    with open(path, "w") as fh:
        json.dump(system_to_dict(sys), fh, indent=2, sort_keys=True)
        fh.write("\n")


@pytest.fixture
def count_svds(monkeypatch):
    """A list that gains one entry per np.linalg.svd call while the test runs."""
    # np.linalg.norm(M, 2) reaches svd through numpy's private module
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    monkeypatch.setattr(np.linalg._linalg, "svd", counting)
    return calls


@pytest.fixture
def count_matvecs(monkeypatch):
    """A list that gains one entry per scipy CSR matrix-vector product: its row count."""
    # CSR @ vector looks the kernel up on _sparsetools at every call, and
    # passes the matrix's row count first
    calls = []
    matvec = _sparsetools.csr_matvec

    def counting(*args):
        calls.append(args[0])
        return matvec(*args)

    monkeypatch.setattr(_sparsetools, "csr_matvec", counting)
    return calls
