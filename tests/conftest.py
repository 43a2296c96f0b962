"""Shared fixtures."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def checkout_env() -> dict[str, str]:
    """The environment for a child Python that imports this checkout's wcifano.

    Its src leads PYTHONPATH, so a child runs it whether or not the
    package is installed, and never an installed copy elsewhere.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


@pytest.fixture
def extend_survey_families(monkeypatch):
    """A function that patches verify.survey_families to the true families and the given ones."""
    import wcifano.verify

    true = wcifano.verify.survey_families

    def extend(*extra):
        monkeypatch.setattr(wcifano.verify, "survey_families", lambda n, k: true(n, k) + extra)

    return extend
