"""The benchmark's traced mode wraps program functions by module attribute
(`bench/spans.py`); every name it wraps must exist, and unwrapping must put
the original functions back."""

import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def spans():
    sys.path.insert(0, str(BENCH))
    try:
        import spans
    finally:
        sys.path.remove(str(BENCH))
    return spans


def test_every_wrap_point_exists(spans):
    for module, attr, *_ in spans.WRAP_POINTS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_install_then_restore_puts_originals_back(spans):
    originals = [getattr(m, attr) for m, attr, *_ in spans.WRAP_POINTS]
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = [getattr(m, attr) for m, attr, *_ in spans.WRAP_POINTS]
        assert all(w is not o for w, o in zip(wrapped, originals))
    finally:
        tracer.restore()
    assert all(
        getattr(m, attr) is o for (m, attr, *_), o in zip(spans.WRAP_POINTS, originals)
    )
