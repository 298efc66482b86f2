import pytest

from tests.helpers import PRESSURE_SOURCE, compile_full


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite tests/goldens/*.golden from current compiler output",
    )


@pytest.fixture
def update_goldens(request) -> bool:
    return request.config.getoption("--update-goldens")


@pytest.fixture(scope="session")
def pressure_compilation():
    """``PRESSURE_SOURCE`` (tests/helpers.py), compiled once per session.

    Its solve waits out the 90 s limit, since the LP bound never closes
    the 0.5 gap, so every test that needs the program shares this one
    compile.
    """
    return compile_full(PRESSURE_SOURCE, time_limit=90, gap=0.5)
