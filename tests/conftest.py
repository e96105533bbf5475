import pytest

from cmirecon import linalg


@pytest.fixture
def decompositions(monkeypatch):
    """A function giving the number of eigendecompositions made so far, as
    calls of ``linalg._spectrum``, which ``linalg.eigh`` and every kept
    spectrum go through."""
    calls = []
    original = linalg._spectrum

    def counted(h):
        calls.append(h.shape)
        return original(h)

    monkeypatch.setattr(linalg, "_spectrum", counted)
    return lambda: len(calls)
