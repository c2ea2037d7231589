"""Fixtures for the cProfile attribution tests."""

import os
import textwrap

import pytest

import repro

REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__))


@pytest.fixture
def repro_code():
    """Compile test source as if it were ``src/repro/util/_fixture.py``.

    cProfile attributes a function by its code object's file name, so
    functions built here count as ``util`` code of the
    ``repro.util._fixture`` module without a file on disk.  Returns the
    compiled module code when ``run=False``, else the executed
    namespace.
    """

    def build(source, run=True):
        code = compile(
            textwrap.dedent(source), os.path.join(REPRO_DIR, "util", "_fixture.py"), "exec"
        )
        if not run:
            return code
        namespace = {}
        exec(code, namespace)
        return namespace

    return build
