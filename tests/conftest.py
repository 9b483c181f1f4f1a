import numpy as np
import pytest
from importlib.resources import files

from echosent.lexicon import load_emotion_lexicon, load_valence_lexicon
from echosent.textpipe import load_wordlist

DATA = files("echosent") / "data"
FIXTURES = __file__.rsplit("/", 1)[0] + "/fixtures"


@pytest.fixture(scope="session")
def data_dir():
    return DATA


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


@pytest.fixture(scope="session")
def vlex():
    return load_valence_lexicon(str(DATA / "vader_lexicon.txt"))


@pytest.fixture(scope="session")
def elex():
    return load_emotion_lexicon(str(DATA / "nrc_emotion_lexicon.txt"))


@pytest.fixture(scope="session")
def stopwords():
    return load_wordlist(str(DATA / "stopwords_en.txt"))


@pytest.fixture(scope="session")
def wordlist():
    return load_wordlist(str(DATA / "wordlist_en.txt"))


@pytest.fixture
def probes(monkeypatch):
    """The shapes of the matrices numpy's Cholesky factorizes during a test."""
    calls = []
    real = np.linalg.cholesky

    def cholesky(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", cholesky)
    return calls
