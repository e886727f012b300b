import functools

import pytest

from helo.verify import full_pipeline_gradcheck


@pytest.fixture(scope="session")
def tiny_gradcheck():
    """`full_pipeline_gradcheck(seed)` at `tiny_config`, each seed swept once
    per session; callers must not change the returned model or plans."""
    return functools.cache(full_pipeline_gradcheck)
