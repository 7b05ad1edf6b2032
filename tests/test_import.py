"""The matrix-free route runs on numpy alone; scipy loads on the first dense
call; the oracles load only on request. Each of these tests runs in a fresh
interpreter, since this one has scipy and the oracles loaded already. The
package's source reads no private numpy name."""

import os
import pathlib
import re
import subprocess
import sys
import textwrap

import pytest

import eigengrad as eg

NO_SCIPY = 'assert not [m for m in sys.modules if m.split(".")[0] == "scipy"], "scipy loaded"'


def run_fresh(*blocks):
    """Run the code ``blocks``, each dedented, in a fresh interpreter, this
    package first on its path and this process's PYTHONPATH after it; fails
    on a non-zero exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.dirname(os.path.dirname(eg.__file__)), env.get("PYTHONPATH")) if p)
    code = "\n".join(textwrap.dedent(block) for block in blocks)
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_matrix_free_route_loads_no_scipy():
    # n = 40, k = 4 runs LOBPCG, not the n <= 16 dense fallback
    run_fresh(f"""
        import sys
        import numpy as np
        import eigengrad as eg
        from eigengrad import sampling
        {NO_SCIPY}

        rng = np.random.default_rng(0)
        A_arr, M_arr = sampling.pencil_from_spectrum([1.0, 1.0, 2.0, 3.0], 40, rng,
                                                     mass="random")
        A = eg.SymmetricOperator(40, None, lambda V: A_arr @ V)
        M = eg.SymmetricOperator(40, None, lambda V: M_arr @ V)
        eig = eg.eig_iterative(A, M, 4)
        assert eig.groups == [[0, 1], [2], [3]]
        ts = [sampling.valid_tangent(eig, M, rng) for _ in range(2)]
        cs = [sampling.valid_cotangent(eig, M, rng) for _ in range(2)]
        assert len(eg.jvp(A, M, eig, ts, solver="iterative")) == 2
        assert len(eg.vjp(A, M, eig, cs, solver="iterative")) == 2
        {NO_SCIPY}

        dense = eg.eig_dense(A, M, 4)
        assert "scipy.linalg" in sys.modules
        np.testing.assert_allclose(dense.lambdas, eig.lambdas, rtol=0, atol=1e-8)
    """)


FIRST_USE = {
    "lookup": "threads = _blas.scipy_openblas()",
    "scope": """
        with _blas.scipy_one_thread():
            threads = _blas.scipy_openblas()
            assert threads is None or threads[0]() == 1
    """,
}


@pytest.mark.parametrize("first", sorted(FIRST_USE))
def test_scipy_thread_lookup_as_first_scipy_use(first):
    # the lookup binds only a library already loaded, so it must load scipy's
    # OpenBLAS first; else the one-thread scope would silently do nothing
    run_fresh(f"""
        import sys
        from eigengrad import _blas
        {NO_SCIPY}
    """, FIRST_USE[first], """
        import scipy.linalg    # loads scipy's OpenBLAS, where the lookup did not
        assert threads is not None or not _blas._vendored(scipy)
    """)


def test_package_root_leaves_the_oracles_unloaded():
    run_fresh("""
        import sys
        import eigengrad as eg
        assert "eigengrad.oracle" not in sys.modules, "oracle loaded"
        assert len(eg.__all__) == 29

        import eigengrad.oracle
        for name in ("FullSpectrum", "FdTangent", "full_spectrum", "jvp_series",
                     "vjp_series", "finite_difference_jvp",
                     "analytic_projector_derivative"):
            assert name not in eg.__all__ and not hasattr(eg, name), name
            assert getattr(eigengrad.oracle, name).__module__ == "eigengrad.oracle"
    """)


def test_the_package_reads_no_private_numpy_name():
    # numpy may change or drop a private name in any release, and CI tests
    # only the newest numpy and the declared floor
    private = re.compile(r"_implementation|numpy\.core|np\._|numpy\._")
    found = [f"{path.name}:{i}: {line.strip()}"
             for path in sorted(pathlib.Path(eg.__file__).parent.rglob("*.py"))
             for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if private.search(line)]
    assert not found, found
