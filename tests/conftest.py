import numpy as np
import pytest

from dyninv.gengk import gengk_init, gengk_step
from dyninv.hybrid import ProjectedProblem
from dyninv.linop import DenseOperator


def random_orthogonal(rng, n):
    """Random n x n orthogonal matrix: the Q factor of a Gaussian matrix."""
    return np.linalg.qr(rng.standard_normal((n, n)))[0]


def random_spd(rng, n, cond=100.0):
    """Random SPD matrix with condition number about ``cond``."""
    U = random_orthogonal(rng, n)
    w = np.logspace(0, -np.log10(cond), n)
    return (U * w) @ U.T


def block_restart_instance(rng):
    """(A, R, Q, b) 8 x 8 of two 4 x 4 diagonal blocks, with b in the first
    block only: the Krylov space breaks down after 4 steps, with beta_5 = 0."""
    blocks = [[rng.standard_normal((4, 4)) for _ in range(2)] for _ in range(3)]
    A, R, Q = (np.block([[X, np.zeros((4, 4))], [np.zeros((4, 4)), Y]])
               for X, Y in blocks)
    R, Q = R @ R.T + np.eye(8), Q @ Q.T + np.eye(8)
    return A, R, Q, np.concatenate([rng.standard_normal(4), np.zeros(4)])


def run_gengk(A, R, Q, b, k, reorthogonalize=False):
    """Run up to ``k`` gen-GK steps, stopping early on breakdown."""
    fact = gengk_init(A, R, Q, b, k, reorthogonalize)
    while fact.breakdown is None and fact.k < k:
        gengk_step(fact)
    return fact


def tikhonov(proj, lam):
    """The projected problem's Tikhonov solution z(lam) = Vt' f."""
    return proj.Vt.T @ proj.fit(lam).f


def random_problem(rng, m, n, cond=100.0):
    """Random (A, R, Q, b) tuple with dense SPD weights."""
    A = rng.standard_normal((m, n))
    R = random_spd(rng, m, cond)
    Q = random_spd(rng, n, cond)
    b = rng.standard_normal(m)
    return A, R, Q, b


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def projected_svds(monkeypatch):
    """The k of every ProjectedProblem constructed (one SVD of B_k each) from
    here on."""
    built = []
    post_init = ProjectedProblem.__post_init__

    def counting(self):
        built.append(self.k)
        post_init(self)

    monkeypatch.setattr(ProjectedProblem, "__post_init__", counting)
    return built


def fresh_projections(monkeypatch):
    """Make ``ProjectedProblem.of`` build a new problem from B_k every call."""
    monkeypatch.setattr(ProjectedProblem, "of", classmethod(
        lambda cls, fact: cls(fact.bidiagonal(), fact.beta1)))


def as_op(M):
    return DenseOperator(np.asarray(M, dtype=float))
