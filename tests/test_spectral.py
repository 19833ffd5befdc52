import numpy as np
import pytest

from hlslab.spectral import ROUNDING_ULPS, lanczos_extreme


def _hermitian(dim, dtype, seed):
    """Hermitian matrix with a known spectrum: a separated top eigenvalue
    over a cluster in [0, 1]."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((dim, dim))
    if np.issubdtype(dtype, np.complexfloating):
        z = z + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(z)
    evals = np.concatenate([np.linspace(0.0, 1.0, dim - 1), [1.5]])
    return (q * evals) @ q.conj().T


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_restarted_lanczos_matches_dense(dtype):
    dim, basis = 120, 12
    a = _hermitian(dim, dtype, seed=4)
    calls = [0]

    def apply(x):
        calls[0] += 1
        return a @ x

    start = np.random.default_rng(9).standard_normal(dim).astype(dtype)
    theta, residual, converged = lanczos_extreme(
        apply, dim, start, tol=1e-10, dtype=dtype, max_basis=basis)
    top = np.linalg.eigvalsh(a)[-1]
    assert converged
    assert calls[0] > basis  # at least one restart happened
    assert abs(theta - top) < 1e-9
    assert theta <= top + 1e-12  # a Rayleigh quotient never overshoots
    assert residual <= 1e-10


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_lanczos_leaves_start_and_operator_output_alone(dtype):
    dim = 40
    a = _hermitian(dim, dtype, seed=2)
    start = np.ones(dim, dtype=dtype)
    outputs = []

    def apply(x):
        y = a @ x
        outputs.append((y, y.copy()))
        return y

    lanczos_extreme(apply, dim, start, tol=1e-10, dtype=dtype, max_basis=8)
    assert np.array_equal(start, np.ones(dim, dtype=dtype))
    assert all(np.array_equal(y, kept) for y, kept in outputs)


@pytest.mark.parametrize("scale", [1e2, 1e4, 1e6])
def test_lanczos_stops_on_an_exhausted_krylov_space(scale):
    # scale * u u^T from a start near u spans a 2-dimensional Krylov space;
    # the dense product leaves rounding noise of size eps * scale after it
    dim = 300
    rng = np.random.default_rng(5)
    u = rng.standard_normal(dim)
    u /= np.linalg.norm(u)
    a = scale * np.outer(u, u)
    calls = [0]

    def apply(x):
        calls[0] += 1
        return a @ x

    start = u + 1e-3 * rng.standard_normal(dim)
    theta, residual, converged = lanczos_extreme(apply, dim, start, tol=1e-10)
    assert converged
    assert calls[0] == 2
    assert theta == pytest.approx(scale, rel=1e-12)
    assert residual <= ROUNDING_ULPS * np.finfo(float).eps * scale
