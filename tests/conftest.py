"""Helpers shared by the test modules."""

import pytest


def _check_plain_json(value, path="$"):
    if type(value) is list:
        for i, item in enumerate(value):
            _check_plain_json(item, f"{path}[{i}]")
    elif type(value) is dict:
        for key, item in value.items():
            assert type(key) is str, f"{path}: non-string key {key!r}"
            _check_plain_json(item, f"{path}.{key}")
    else:
        assert value is None or type(value) in (bool, int, str), (
            f"{path}: {type(value).__name__} {value!r}"
        )


@pytest.fixture
def assert_plain_json():
    """Assert that a value is plain JSON data without floats.

    Containers are lists and dicts with ``str`` keys; leaves are ``None``,
    ``bool``, ``int`` or ``str``.  Subclasses (tuples, IntEnums) do not count.
    """
    return _check_plain_json
