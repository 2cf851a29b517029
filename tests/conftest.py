import os

import pytest

from imbtab.models import fanout


@pytest.fixture(autouse=True)
def no_leaked_children():
    """Every test that forks must reap what it forked."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(params=["1cpu", "2cpu", "2cpu-no-pipe"])
def fit_cpus(request, monkeypatch):
    """The number of CPUs the fit fan-out sees: at 1 it fits in-process, at 2
    it forks two children, and at 2 with `os.pipe` refused it forks nothing
    and fits every model in-process."""
    cpus = 1 if request.param == "1cpu" else 2
    monkeypatch.setattr(fanout, "allowed_cpus", lambda: cpus)
    if request.param == "2cpu-no-pipe":

        def refuse():
            raise OSError("no pipe")

        monkeypatch.setattr(fanout.os, "pipe", refuse)
    return cpus


@pytest.fixture
def on_child_unit(monkeypatch, tmp_path):
    """on_child_unit(name, on_child): in a forked child, each unit of the model
    called name (of any model when name is None) first touches a marker file
    and then runs on_child(cfg). Returns the marker path, which exists once a
    child has started such a unit."""
    parent = os.getpid()
    marker = tmp_path / "child-started"

    def install(name=None, on_child=lambda cfg: None):
        def wrap(unit, at):
            """unit, whose positional argument number `at` is the cfg"""

            def wrapped(*args):
                cfg = args[at]
                if os.getpid() != parent and name in (None, cfg.name):
                    marker.touch()
                    on_child(cfg)
                return unit(*args)

            return wrapped

        monkeypatch.setattr(fanout, "fit_model", wrap(fanout.fit_model, 2))  # (X, y, cfg)
        monkeypatch.setattr(fanout, "grow_tree", wrap(fanout.grow_tree, 1))  # (y, cfg, plan, i)
        return marker

    return install
