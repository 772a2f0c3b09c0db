import sys
from pathlib import Path

import numpy as np
import pytest

# Let test modules import the shared oracles regardless of pytest import mode.
sys.path.insert(0, str(Path(__file__).resolve().parent))


@pytest.fixture
def face_solves(monkeypatch):
    """A list that grows by one at each ``np.linalg.lstsq`` call, which is one
    face solve of ``simplex_weights``."""
    calls = []
    lstsq = np.linalg.lstsq

    def counted(*args, **kwargs):
        calls.append(None)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    return calls
