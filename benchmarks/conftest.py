"""Shared fixtures for the benchmark harness.

Every test here regenerates one table or figure of the paper on the full
synthetic SPECfp95-like suite, asserts the qualitative shape the paper
reports and gates its rendering against the committed file under
``results/`` (:func:`check_artifact`).  The three ``bench``-marked tests
render CPU seconds or the 220-loop extended tier; they run only under
``-m bench`` and rewrite their artifacts unconditionally
(:func:`save_artifact`).  Timing belongs to ``perfbench/``.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.workloads.spec import extended_suite, spec_suite

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"

# The ``bench`` marker itself is registered in pyproject.toml
# ([tool.pytest.ini_options]), so plain ``pytest`` runs emit no
# unknown-marker warnings and CI can filter with ``-m "not bench"``.


def pytest_collection_modifyitems(config, items):
    """Make ``bench``-marked tests opt-in: they only run under ``-m bench``.

    Their artifacts carry CPU seconds or take minutes to render, which
    has no place in an ordinary test run.
    """
    if "bench" in (config.getoption("-m") or ""):
        return
    skip = pytest.mark.skip(reason="opt-in artifact: run with -m bench")
    for item in items:
        if "bench" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def suite():
    """The full ten-program suite (shared across all benchmarks)."""
    return spec_suite()


@pytest.fixture(scope="session")
def big_suite():
    """The extended production-scale tier (220 loops, bodies to ~280 ops)."""
    return extended_suite()


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def save_artifact(results_dir: pathlib.Path, name: str, text: str) -> None:
    """Persist a rendered table/figure (``-m bench`` artifacts only)."""
    path = results_dir / name
    path.write_text(text + "\n")


def check_artifact(results_dir: pathlib.Path, name: str, text: str) -> None:
    """Fail if a rendering drifted from its committed ``results/`` file.

    On a mismatch the new text is written over the file, so ``git diff``
    shows the drift, and the test fails naming it.
    """
    path = results_dir / name
    if path.exists() and path.read_text() == text + "\n":
        return
    save_artifact(results_dir, name, text)
    pytest.fail(
        f"results/{name} drifted from its committed text; the new "
        f"rendering was written there (see `git diff results/{name}`)"
    )
