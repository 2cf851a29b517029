import os

import pytest

from imbtab.models import fanout


@pytest.fixture(autouse=True)
def no_leaked_children():
    """Every test that forks must reap what it forked."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(params=[1, 2], ids=["1cpu", "2cpu"])
def fit_cpus(request, monkeypatch):
    """The number of CPUs the fit fan-out sees: 1 fits in-process, 2 forks two children."""
    monkeypatch.setattr(fanout, "allowed_cpus", lambda: request.param)
    return request.param


@pytest.fixture
def on_child_unit(monkeypatch, tmp_path):
    """on_child_unit(name, on_child): in a forked child, each unit of the model
    called name (of any model when name is None) first touches a marker file
    and then runs on_child(cfg). Returns the marker path, which exists once a
    child has started such a unit."""
    parent = os.getpid()
    marker = tmp_path / "child-started"

    def install(name=None, on_child=lambda cfg: None):
        def wrap(unit):
            def wrapped(X, y, cfg, *rest):
                if os.getpid() != parent and name in (None, cfg.name):
                    marker.touch()
                    on_child(cfg)
                return unit(X, y, cfg, *rest)

            return wrapped

        monkeypatch.setattr(fanout, "fit_model", wrap(fanout.fit_model))
        monkeypatch.setattr(fanout, "grow_tree", wrap(fanout.grow_tree))
        return marker

    return install
