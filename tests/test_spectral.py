import hashlib
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hlslab import spectral
from hlslab.spectral import ROUNDING_ULPS, NormBracket, lanczos_extreme

EPS = np.finfo(float).eps


def _logged(apply):
    """apply, recording a digest of every argument and a copy of the last
    one.  Pass 1 calls it on the Lanczos vectors q_1 .. q_k; a replay calls
    it on q_1 .. q_(k-1) again and then on the Ritz vector y."""
    digests, last = [], [None]

    def logged(x):
        digests.append(hashlib.blake2b(x.tobytes()).digest())
        last[0] = x.copy()
        return apply(x)
    return logged, digests, last


def _pass_one_steps(digests):
    """The pass-1 step count k of a solve that replayed once, after
    checking that the replay regenerated q_1 .. q_(k-1) bit for bit."""
    k = digests.index(digests[0], 1)
    assert len(digests) == 2 * k
    assert digests[k:2 * k - 1] == digests[:k - 1]
    return k


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
    apply, digests, _ = _logged(lambda x: a @ x)
    start = np.random.default_rng(9).standard_normal(dim).astype(dtype)
    theta, residual, converged = lanczos_extreme(
        apply, dim, start, tol=1e-10, dtype=dtype, max_basis=basis)
    top = np.linalg.eigvalsh(a)[-1]
    assert converged
    assert _pass_one_steps(digests) > basis  # past the first max_basis
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
    apply, digests, _ = _logged(lambda x: a @ x)
    start = u + 1e-3 * rng.standard_normal(dim)
    theta, residual, converged = lanczos_extreme(apply, dim, start, tol=1e-10)
    assert converged
    assert _pass_one_steps(digests) == 2  # then one replay matvec and y
    assert theta == pytest.approx(scale, rel=1e-12)
    assert residual <= ROUNDING_ULPS * np.finfo(float).eps * scale


def _clustered(dim, dtype, seed):
    """Hermitian matrix whose top eigenvalue 1.02 sits close over [0, 1],
    so a solve takes dozens of steps."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((dim, dim))
    if np.issubdtype(dtype, np.complexfloating):
        z = z + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(z)
    evals = np.concatenate([np.linspace(0.0, 1.0, dim - 1), [1.02]])
    return (q * evals) @ q.conj().T


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_residual_is_the_explicit_one_of_the_ritz_vector(dtype):
    dim, basis = 150, 10
    a = _clustered(dim, dtype, seed=11)
    apply, digests, last = _logged(lambda x: a @ x)
    start = np.random.default_rng(3).standard_normal(dim).astype(dtype)
    theta, residual, converged = lanczos_extreme(
        apply, dim, start, tol=1e-9, dtype=dtype, max_basis=basis)
    assert converged
    assert _pass_one_steps(digests) >= 3 * basis  # a long pass 1
    y = last[0]  # the replay's last matvec is on the Ritz vector
    assert abs(np.linalg.norm(y) - 1.0) < 1e-12
    assert abs(np.vdot(y, a @ y).real - theta) < 1e-12
    assert abs(np.linalg.norm(a @ y - theta * y) - residual) < 1e-12
    assert residual <= 1e-9
    top = np.linalg.eigvalsh(a)[-1]
    assert abs(theta - top) < 1e-9 and theta <= top + 1e-12


def _path(x):
    """The adjacency operator of the path on len(x) vertices."""
    y = np.zeros_like(x)
    y[1:] += x[:-1]
    y[:-1] += x[1:]
    return y


def _squared_path_start(dim):
    return np.random.default_rng(spectral.LANCZOS_SEED).standard_normal(dim)


def test_lanczos_converges_on_the_squared_path():
    # A^2 for the path on 1,601 vertices: top eigenvalue 4 cos^2(pi/1602)
    # with a relative gap near 1e-5; a single-vector restart needed 4,472
    # matvecs from this start, and pass 1 takes at most a quarter of that
    dim = 1601
    apply, digests, _ = _logged(lambda x: _path(_path(x)))
    theta, residual, converged = lanczos_extreme(
        apply, dim, _squared_path_start(dim), tol=4e-10)
    assert converged
    assert residual <= 4e-10
    assert abs(theta - 4 * np.cos(np.pi / (dim + 1)) ** 2) < 1e-12
    assert _pass_one_steps(digests) <= 4472 // 4


def test_ritz_checks_thin_out_on_long_solves(monkeypatch):
    # the squared path on 3,201 vertices takes over 1,000 pass-1 steps;
    # checking every 8 steps would solve T_k about k / 8 times
    sizes = []
    top = spectral._tridiagonal_top

    def counted(alpha, beta, x=None):
        sizes.append(len(alpha))
        return top(alpha, beta, x)

    monkeypatch.setattr(spectral, "_tridiagonal_top", counted)
    dim = 3201
    theta, _, converged = lanczos_extreme(
        lambda x: _path(_path(x)), dim, _squared_path_start(dim), tol=4e-10)
    assert converged
    assert abs(theta - 4 * np.cos(np.pi / (dim + 1)) ** 2) < 1e-12
    k = sizes[-1]  # the last check is at the last pass-1 step
    assert k >= 1000
    assert sizes[:16] == list(range(8, 129, 8))  # every 8 up to k = 128
    assert len(sizes) < k / 16


def test_bracket_max_keeps_an_unconverged_flag():
    done = NormBracket(1.0, 2.0, "truncation", "l1")
    short = NormBracket(0.5, 1.5, "fiber-representation", "lanczos-residual",
                        converged=False)
    for a, b in ((done, short), (short, done)):
        m = a.max(b)
        assert (m.lower, m.upper, m.converged) == (1.0, 2.0, False)
        assert (m.lower_provenance, m.upper_provenance) == ("truncation", "l1")
    assert done.max(done).converged


@pytest.mark.parametrize("lower,upper", [
    (float("nan"), 1.0), (0.0, float("nan")), (float("nan"), float("nan")),
    (-1e-300, 1.0), (1.0, 1.0 - 2e-12)])
def test_bracket_refuses_an_invalid_interval(lower, upper):
    with pytest.raises(ValueError):
        NormBracket(lower, upper, "truncation", "l1")


def test_bracket_allows_rounding_slack():
    assert NormBracket(1.0, 1.0 - 1e-13, "truncation", "l1").lower == 1.0
    assert NormBracket(0.0, float("inf"), "truncation", "l1").lower == 0.0


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
    spectral.singular_value_bracket(lambda x: x, lambda x: x, dim, 1.0,
                                    dtype=dtype)
    (start,) = starts
    if dtype is np.complex128:
        u = spectral.seeded_vector(2 * dim)  # disjoint halves of one draw
        assert np.array_equal(start, 1.0 + u[:dim] + 1j * u[dim:])
    else:
        assert np.array_equal(start, 1.0 + spectral.seeded_vector(dim))


@pytest.mark.parametrize("c,dtype", [(3.0, np.float64),
                                     (1 + 1j, np.complex128)])
def test_a_1x1_operator_takes_the_solve(monkeypatch, c, dtype):
    solves = []
    solve = spectral.lanczos_extreme

    def recording(*args, **kwargs):
        solves.append(solve(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(spectral, "lanczos_extreme", recording)
    b = spectral.singular_value_bracket(lambda x: c * x,
                                        lambda x: np.conj(c) * x, 1, 10.0,
                                        dtype=dtype)
    assert len(solves) == 1 and b.converged
    # the rounding allowance puts |c| strictly inside the bracket
    sq = Fraction(c.real) ** 2 + Fraction(c.imag) ** 2
    assert Fraction(b.lower) ** 2 < sq < Fraction(b.upper) ** 2
    assert b.upper_provenance == spectral.RESIDUAL_PROVENANCE
    assert b.upper - b.lower < 1e-12


def _peak_bytes(fn, *args):
    """(fn(*args), peak bytes traced while it ran)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bracket_basis_never_exceeds_max_basis():
    # the order of fd level 5; the close top eigenvalue takes more pass-1
    # steps than MAX_BASIS, and the solve still holds only a few vectors
    dim = 3600
    diag = np.concatenate([np.linspace(0.0, 1.0, dim - 1), [1.002]])
    calls = [0]

    def apply(x):
        calls[0] += 1
        return diag * x

    # a loose a-priori bound, so the upper endpoint is the solve's own
    b, peak = _peak_bytes(spectral.singular_value_bracket, apply,
                          lambda x: diag * x, dim, 2.0)
    assert b.converged
    assert abs(b.lower - 1.002) < 1e-9 and b.upper >= 1.002
    assert b.upper_provenance == spectral.RESIDUAL_PROVENANCE
    assert calls[0] > 2 * spectral.MAX_BASIS
    assert peak < 10 * dim * 8


def test_solve_keeps_fewer_than_ten_vectors():
    dim = 200_000
    diag = np.concatenate([np.linspace(0.0, 1.0, dim - 1), [1.02]])
    start = 1.0 + spectral.seeded_vector(dim)
    calls = [0]

    def apply(x):
        calls[0] += 1
        return diag * x

    (theta, residual, converged), peak = _peak_bytes(
        lanczos_extreme, apply, dim, start, 1e-10)
    assert converged and residual <= 1e-10
    assert abs(theta - 1.02) < 1e-12
    assert calls[0] > 2 * spectral.MAX_BASIS
    assert peak < 10 * dim * 8


# -- the tridiagonal kernel against dense eigh --------------------------------

def _tridiagonalize(m):
    """(diagonal, off-diagonal) of a Householder tridiagonalization of the
    real symmetric m: the same spectrum."""
    m = np.array(m, dtype=float)
    for j in range(len(m) - 2):
        x = m[j + 1:, j]
        v = x.copy()
        v[0] += np.copysign(np.linalg.norm(x), x[0])
        if not v.any():
            continue
        v /= np.linalg.norm(v)
        m[j + 1:, j] = m[j, j + 1:] = x - 2 * (v @ x) * v
        rest = m[j + 1:, j + 1:]
        p = rest @ v
        w = p - (v @ p) * v
        rest -= 2 * (np.outer(v, w) + np.outer(w, v))
    return np.diag(m).copy(), np.diag(m, 1).copy()


def _with_spectrum(evals, rng):
    q, _ = np.linalg.qr(rng.standard_normal((len(evals), len(evals))))
    return _tridiagonalize((q * evals) @ q.T)


def _tridiagonal_case(kind, k, rng):
    if kind == "random":
        return rng.standard_normal(k), rng.standard_normal(k - 1)
    if kind == "clustered":  # the top five within 4e-9 of each other
        evals = np.concatenate([rng.uniform(-1.0, 0.5, max(k - 5, 0)),
                                1.0 - 1e-9 * np.arange(min(k, 5))])
        return _with_spectrum(evals, rng)
    if kind == "degenerate":  # a triple top, then two copies of a block
        evals = np.concatenate([rng.uniform(-1.0, 0.5, max(k - 3, 0)),
                                [2.0] * min(k, 3)])
        a, b = _with_spectrum(evals, rng)
        h = k // 2
        if h:
            a[h:2 * h], b[h:2 * h - 1] = a[:h], b[:h - 1]
            b[h - 1:h] = 0.0
        return a, b
    if kind == "ghosts":  # plain Lanczos on 40 values, run on past them
        d, q = rng.random(40), rng.standard_normal(40)
        alpha, beta, q_prev = [], [0.0], 0.0 * q
        for _ in range(k):
            q = q / np.linalg.norm(q)
            w = d * q - beta[-1] * q_prev
            alpha.append(q @ w)
            w -= alpha[-1] * q
            beta.append(np.linalg.norm(w))
            q_prev, q = q, w
        return np.array(alpha), np.array(beta[1:-1])
    a, b = rng.standard_normal(k), rng.standard_normal(k - 1)  # split
    b[rng.random(k - 1) < 0.3] = 0.0
    if k % 3 == 0:
        b[:] = 0.0
    return a, b


KINDS = ["random", "clustered", "degenerate", "ghosts", "split"]


@pytest.mark.parametrize("kind", KINDS)
def test_tridiagonal_top_matches_dense_eigh(kind):
    rng = np.random.default_rng(KINDS.index(kind))
    for k in (1, 2, 3, 4, 5, 8, 9, 16, 33, 64, 200, 600):
        a, b = _tridiagonal_case(kind, k, rng)
        t = np.diag(a) + np.diag(b, 1) + np.diag(b, -1)
        evals, evecs = np.linalg.eigh(t)
        scale = max(np.abs(evals).max(), 1e-300)
        # from a seeded start, from the top eigenvector of the leading
        # block (the warm start of pass 1) and from the bottom one, whose
        # Rayleigh quotient iteration ends off the top
        lead = np.linalg.eigh(t[:-1, :-1])[1]
        for x in (None,) if k == 1 else (None, lead[:, -1], lead[:, 0]):
            theta, s = spectral._tridiagonal_top(list(a), list(b), x)
            assert abs(theta - evals[-1]) <= 64 * EPS * scale, (k, x)
            assert abs(np.linalg.norm(s) - 1.0) < 1e-12
            assert np.linalg.norm(t @ s - theta * s) <= 64 * EPS * scale
            if k > 1 and evals[-1] - evals[-2] > 1e-6 * scale:
                assert abs(abs(s @ evecs[:, -1]) - 1.0) < 1e-12
