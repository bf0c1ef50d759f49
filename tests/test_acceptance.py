"""Acceptance battery: every numbered criterion must pass.

Each test prints its one-line verdict (visible with ``pytest -s`` or on
failure), mirroring the ``suite`` subcommand output.
"""

import pytest

from bergman_lab import acceptance


@pytest.mark.parametrize("name", acceptance.criterion_names())
def test_criterion(name):
    res = acceptance.run_criterion(name)
    print(res.line())
    assert res.passed, res.line()


def test_registry_is_complete():
    assert acceptance.criterion_names() == [f"a{k}" for k in range(1, 14)]
