import pytest

from hlslab import spectral
from hlslab.balls import BallIndex
from hlslab.quotients import ApproximatedGroup


@pytest.fixture(scope="session")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("quotient-cache")


@pytest.fixture(scope="session")
def fd(cache_dir):
    return ApproximatedGroup("fd", cache_dir=cache_dir)


@pytest.fixture(scope="session")
def congruence(cache_dir):
    return ApproximatedGroup("congruence", cache_dir=cache_dir)


@pytest.fixture(scope="session")
def cyclic(cache_dir):
    return ApproximatedGroup("cyclic", cache_dir=cache_dir)


@pytest.fixture()
def one_short_restart(monkeypatch):
    """Every Lanczos solve gets a pass-1 budget of 8 steps (max_basis=8,
    max_restarts=1), so solves that need more steps end unconverged."""
    solve = spectral.lanczos_extreme

    def short(*args, **kwargs):
        kwargs.update(max_restarts=1, max_basis=8)
        return solve(*args, **kwargs)

    monkeypatch.setattr(spectral, "lanczos_extreme", short)


@pytest.fixture()
def no_solver(monkeypatch):
    """Every Lanczos solve raises, so only brackets that need none pass."""
    def refuse(*args, **kwargs):
        raise AssertionError("unexpected Lanczos solve")

    monkeypatch.setattr(spectral, "lanczos_extreme", refuse)


@pytest.fixture()
def balls_built(monkeypatch):
    """The arguments of every BallIndex built while the test runs."""
    built = []
    init = BallIndex.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(BallIndex, "__init__", counting)
    return built
