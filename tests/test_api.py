"""The top-level ``qdeg`` namespace: exactly the public API."""

import sys
import types

import qdeg

#: Library code that nothing in the package called; it is gone, not hidden.
REMOVED = (
    "kron", "vec", "unvec", "partial_trace", "partial_transpose", "hermitian_eigen",
    "hermitian_eigenvalues", "StinespringIsometry", "stinespring", "BELL_F", "to_bell_basis",
    "apply", "apply_choi", "symmetrize_swap",
)


def test_verdict_table_is_exported():
    # `qdeg.classify` is the function, so the table is reached as `qdeg.VERDICTS`
    assert qdeg.VERDICTS is sys.modules["qdeg.classify"].VERDICTS
    assert list(qdeg.VERDICTS) == ["anti", "deg", "eb"]


def test_all_is_the_public_api():
    assert len(set(qdeg.__all__)) == len(qdeg.__all__)
    for name in qdeg.__all__:
        assert not isinstance(getattr(qdeg, name), types.ModuleType), name
    assert not set(REMOVED) & set(qdeg.__all__)
    assert not any(hasattr(qdeg, name) for name in REMOVED)
    namespace = {}
    exec("from qdeg import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(qdeg.__all__)
