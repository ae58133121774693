"""Shared test configuration.

Property-based tests run derandomized so the suite is reproducible; the
deadline is disabled because cluster explorations have heavy-tailed
per-example cost.

Tests that count a cache's hits and misses take the :func:`cold_caches`
fixture, so their counts do not depend on which tests ran before them.
"""

import importlib
import pkgutil

import pytest
from hypothesis import settings

import percolab

settings.register_profile("suite", deadline=None, max_examples=50,
                          derandomize=True)
settings.load_profile("suite")


def _clear_package_caches():
    """Empty every ``lru_cache`` of the package: module-level functions and
    the methods of its classes alike."""
    for info in pkgutil.iter_modules(percolab.__path__):
        module = importlib.import_module(f"{percolab.__name__}.{info.name}")
        for obj in vars(module).values():
            members = vars(obj).values() if isinstance(obj, type) else ()
            for f in (obj, *members):
                if hasattr(f, "cache_clear"):
                    f.cache_clear()


@pytest.fixture
def cold_caches():
    """Start the test with every package cache empty; the returned function
    empties them again."""
    _clear_package_caches()
    return _clear_package_caches
