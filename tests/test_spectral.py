import numpy as np
import pytest

from hlslab import spectral
from hlslab.spectral import ROUNDING_ULPS, NormBracket, lanczos_extreme


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


def _ritz_log(monkeypatch, apply):
    """Wraps apply and spectral._ritz_top so that every Ritz check records
    (k, theta, y) with y the top Ritz vector evecs[:, -1] @ V[:k]; the
    basis V is read off the rows the solver passes to apply, which are
    views of it."""
    basis, log = [], []

    def seen_apply(x):
        if not basis:
            assert x.base is not None and x.base.ndim == 2
            basis.append(x.base)
        return apply(x)

    def ritz_top(T, k):
        evals, evecs = solver_ritz_top(T, k)
        log.append((k, float(evals[-1]), evecs[:, -1] @ basis[0][:k]))
        return evals, evecs

    solver_ritz_top = spectral._ritz_top
    monkeypatch.setattr(spectral, "_ritz_top", ritz_top)
    return seen_apply, log


def _clustered(dim, dtype, seed):
    """Hermitian matrix whose top eigenvalue 1.02 sits close over [0, 1],
    so a 10-vector basis needs several restarts."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((dim, dim))
    if np.issubdtype(dtype, np.complexfloating):
        z = z + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(z)
    evals = np.concatenate([np.linspace(0.0, 1.0, dim - 1), [1.02]])
    return (q * evals) @ q.conj().T


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_thick_restart_residual_is_the_ritz_vectors(monkeypatch, dtype):
    dim, basis = 150, 10
    a = _clustered(dim, dtype, seed=11)
    apply, log = _ritz_log(monkeypatch, lambda x: a @ x)
    start = np.random.default_rng(3).standard_normal(dim).astype(dtype)
    theta, residual, converged = lanczos_extreme(
        apply, dim, start, tol=1e-9, dtype=dtype, max_basis=basis)
    assert converged
    assert sum(k == basis for k, _, _ in log[:-1]) >= 3  # restarts
    k, last_theta, y = log[-1]
    assert abs(np.linalg.norm(y) - 1.0) < 1e-12
    assert theta == last_theta
    assert abs(np.vdot(y, a @ y).real - theta) < 1e-12
    assert abs(np.linalg.norm(a @ y - theta * y) - residual) < 1e-12
    assert abs(theta - np.linalg.eigvalsh(a)[-1]) < 1e-9


def test_thick_restart_converges_on_the_squared_path():
    # A^2 for the path on 1,601 vertices: top eigenvalue 4 cos^2(pi/1602)
    # with a relative gap near 1e-5; the single-vector restart needed 4,472
    # matvecs from this start
    dim = 1601

    def path(x):
        y = np.zeros_like(x)
        y[1:] += x[:-1]
        y[:-1] += x[1:]
        return y

    calls = [0]

    def apply(x):
        calls[0] += 1
        return path(path(x))

    start = np.random.default_rng(spectral.LANCZOS_SEED).standard_normal(dim)
    theta, residual, converged = lanczos_extreme(apply, dim, start, tol=4e-10)
    assert converged
    assert residual <= 4e-10
    assert abs(theta - 4 * np.cos(np.pi / (dim + 1)) ** 2) < 1e-12
    assert calls[0] <= 4472 // 4


def test_bracket_max_keeps_an_unconverged_flag():
    done = NormBracket(1.0, 2.0, "truncation", "l1")
    short = NormBracket(0.5, 1.5, "fiber-representation", "lanczos-residual",
                        converged=False)
    for a, b in ((done, short), (short, done)):
        m = a.max(b)
        assert (m.lower, m.upper, m.converged) == (1.0, 2.0, False)
        assert (m.lower_provenance, m.upper_provenance) == ("truncation", "l1")
    assert done.max(done).converged


def test_seeded_vector_is_deterministic_and_in_range():
    u = spectral.seeded_vector(10_000)
    assert u.dtype == np.float64 and u.shape == (10_000,)
    assert np.array_equal(u, spectral.seeded_vector(10_000))
    assert u.min() >= -1.0 and u.max() < 1.0
    assert abs(u.mean()) < 0.05 and abs(np.mean(u * u) - 1 / 3) < 0.05
    assert spectral.seeded_vector(0).shape == (0,)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_bracket_starts_from_one_seeded_draw(monkeypatch, dtype):
    dim, starts = 50, []
    solve = spectral.lanczos_extreme

    def recording(apply_op, dim, start, *args, **kwargs):
        starts.append(np.array(start))
        return solve(apply_op, dim, start, *args, **kwargs)

    monkeypatch.setattr(spectral, "lanczos_extreme", recording)
    spectral.singular_value_bracket(lambda x: x, lambda x: x, dim,
                                    dtype=dtype)
    (start,) = starts
    if dtype is np.complex128:
        u = spectral.seeded_vector(2 * dim)  # disjoint halves of one draw
        assert np.array_equal(start, 1.0 + u[:dim] + 1j * u[dim:])
    else:
        assert np.array_equal(start, 1.0 + spectral.seeded_vector(dim))


def test_bracket_basis_never_exceeds_max_basis(monkeypatch):
    # the order of fd level 5; a close top eigenvalue forces restarts
    dim = 3600
    diag = np.concatenate([np.linspace(0.0, 1.0, dim - 1), [1.002]])
    apply, log = _ritz_log(monkeypatch, lambda x: diag * x)
    b = spectral.singular_value_bracket(apply, lambda x: diag * x, dim)
    assert b.converged
    assert abs(b.lower - 1.002) < 1e-9 and b.upper >= 1.002
    assert max(k for k, _, _ in log) == spectral.MAX_BASIS == 64
    assert sum(k == spectral.MAX_BASIS for k, _, _ in log[:-1]) >= 1
