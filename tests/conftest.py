"""Shared fixtures: small synthetic graphs and a hand-built 3-node one."""

import dataclasses
import os

import numpy as np
import pytest

from magsim import tensor as T
from magsim.graph import (CsrMatrix, Mag, ModalitySpec, SyntheticSpec,
                          generate)


def three_node_mag():
    """Hand-built 2-class triangle-less graph: edge 0-1 plus isolated node 2."""
    adjacency = CsrMatrix.from_undirected_edges(np.array([[0, 1]]), 3)
    features = {
        "text": np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]),
        "visual": np.array([[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0]]),
    }
    return Mag(
        num_nodes=3,
        num_classes=2,
        modalities=[("text", 2), ("visual", 3)],
        features=features,
        labels=np.array([0, 1, 0]),
        splits={"train": np.array([0]), "val": np.array([1]), "test": np.array([2])},
        adjacency=adjacency,
    )


def isolated_node_mag(seed=5):
    """Two-modality synthetic graph whose node 0 has lost all its edges: the
    mean-mix operator's row sums there are alpha, not 1."""
    mag = generate(SyntheticSpec(40, 3, [ModalitySpec("text", 5, 1.0, 0.2),
                                         ModalitySpec("visual", 4, 1.0, 0.4)],
                                 homophily=0.7, mean_degree=4, seed=seed))
    adj = mag.adjacency
    src = np.repeat(np.arange(adj.num_rows), adj.degrees)
    keep = (src < adj.col_indices) & (src != 0)
    pairs = np.stack([src[keep], adj.col_indices[keep]], axis=1)
    mag = dataclasses.replace(mag, adjacency=CsrMatrix.from_undirected_edges(pairs, 40))
    assert mag.adjacency.degrees[0] == 0 and mag.adjacency.nnz > 0
    return mag


def scipy_csr(adj):
    """SciPy's own CSR matrix over a CsrMatrix's arrays: the independent
    reference for magsim's sparse products.  SciPy is imported here, not at
    the top, so that magsim loads its CSR routines itself first, as it does
    outside the tests."""
    import scipy.sparse as sp
    return sp.csr_matrix((adj.values, adj.col_indices, adj.row_offsets),
                         shape=(adj.num_rows, adj.num_cols))


def scipy_mix(adj, alpha):
    """SciPy's own P = alpha*I + (1-alpha)*A_hat and P^T, A_hat the square
    adjacency ``adj`` row-normalized."""
    import scipy.sparse as sp
    p = (alpha * sp.identity(adj.num_rows, format="csr")
         + (1.0 - alpha) * scipy_csr(adj.row_normalize())).tocsr()
    return p, p.T.tocsr()


def dropout(x, rate, rng):
    """tensor.dense with w = I and b = 0: for x >= 0, relu(x @ I + 0) is x,
    so this is inverted dropout of x alone, bit for bit."""
    return T.dense(x, T.Tensor(np.eye(x.cols)), T.Tensor(np.zeros((1, x.cols))), rate, rng)


def src_env() -> dict:
    """This process's environment with the checkout's ``src/`` first on
    PYTHONPATH, for child interpreters that import magsim."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def randomize_params(model, seed=0):
    """Every parameter, biases included, set to standard normal draws."""
    rng = np.random.default_rng(seed)
    for value in model.params.values():
        value[...] = rng.standard_normal(value.shape)


@pytest.fixture
def tiny_mag():
    return three_node_mag()


@pytest.fixture(scope="session")
def small_mag():
    """Fast two-modality graph for training smoke tests."""
    spec = SyntheticSpec(
        num_nodes=400,
        num_classes=3,
        modalities=[ModalitySpec("text", 8, 1.0, 0.1),
                    ModalitySpec("visual", 8, 1.0, 0.5)],
        homophily=0.7,
        mean_degree=6,
        split_fracs=(0.6, 0.2, 0.2),
        seed=3,
    )
    return generate(spec)


@pytest.fixture(scope="session")
def census_mag():
    """Larger graph for statistical calibration checks."""
    spec = SyntheticSpec(
        num_nodes=5000,
        num_classes=4,
        modalities=[ModalitySpec("text", 16, 1.0, 0.5)],
        homophily=0.7,
        mean_degree=10,
        seed=17,
    )
    return generate(spec)
