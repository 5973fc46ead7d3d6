import builtins
import math

import pytest

from bbp_secrecy import bounds, cli, estimators, model, oracle


def _compensated_sum(values, start=0):
    """sum() as Python 3.12 and later add floats: compensated (math.fsum stands in)."""
    values = list(values)
    if all(isinstance(x, int) for x in values):
        return builtins.sum(values, start)
    return math.fsum([start, *values])


@pytest.fixture
def compensated_sum(monkeypatch):
    """Make every ``sum`` the package's modules call a compensated one."""
    for module in (bounds, cli, estimators, model, oracle):
        monkeypatch.setattr(module, "sum", _compensated_sum, raising=False)
