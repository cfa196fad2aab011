"""Every domain type, and every encoder of raw data, rejects NaN and infinite
input with its own error class."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import statekit as sk
from statekit.errors import EigensolverError, InvalidDistributionError, StatekitError

NAN, INF = float("nan"), float("inf")


def spec_with_fields(x):
    return sk.HamiltonianSpec(x, sk.ring_coupling(len(x)))


def spec_with_coupling(j):
    return sk.HamiltonianSpec(np.ones(len(j)), j)


def spec_with_mu(mu):
    return sk.HamiltonianSpec([0.5, 0.5], sk.ring_coupling(2), mu=mu[0])


def phase_encoding_uniform(phi):
    return sk.phase_encoding(np.full(len(phi), 1.0 / len(phi)), phi)


def dataset(v):
    return sk.LabeledDataset(v, np.ones(len(v)), seed=0)


def profile(vals=np.arange(2.0), gap=1.0):
    return sk.SpectralProfile(vals, gap, degenerate=False)


def zeeman_sweep(eps):
    return sk.spectral._profile_and_zeeman(spec_with_fields(np.array([0.5, -0.3])), eps)


def curvature_scan(taus):
    return sk.information_curvature(spec_with_fields(np.array([0.5, -0.3])), taus)


def curvature(taus=np.array([0.1, 0.01]), errors=np.ones(2), slope=3.0, resid=0.01, norm=1.0):
    return sk.CurvatureScan(taus, errors, slope, resid, commuting=False, commutator_norm=norm)


# type -> (valid input for dimension d, constructor, error class)
CASES = {
    "StateVector": (lambda d: np.full(d, d**-0.5, dtype=complex), sk.StateVector, StatekitError),
    "DenseOperator": (lambda d: np.eye(d, dtype=complex), sk.DenseOperator, StatekitError),
    "HermitianOperator": (lambda d: np.eye(d, dtype=complex), sk.HermitianOperator, StatekitError),
    "SpectralDecomposition.eigenvalues": (
        lambda d: np.arange(d, dtype=float),
        lambda vals: sk.SpectralDecomposition(vals, np.eye(len(vals))),
        EigensolverError,
    ),
    "SpectralDecomposition.eigenvectors": (
        lambda d: np.eye(d, dtype=complex),
        lambda vecs: sk.SpectralDecomposition(np.arange(len(vecs)), vecs),
        EigensolverError,
    ),
    "Distribution": (lambda d: np.full(d, 1.0 / d), sk.Distribution, InvalidDistributionError),
    "amplitude_encoding": (lambda d: np.ones(d), sk.amplitude_encoding, StatekitError),
    "phase_encoding": (lambda d: np.zeros(d), phase_encoding_uniform, StatekitError),
    "HamiltonianSpec.fields": (lambda d: np.ones(d.bit_length() - 1), spec_with_fields, StatekitError),
    "HamiltonianSpec.coupling": (lambda d: sk.ring_coupling(d.bit_length() - 1), spec_with_coupling, StatekitError),
    "HamiltonianSpec.mu": (lambda d: np.ones(1), spec_with_mu, StatekitError),
    "LabeledDataset": (lambda d: np.ones((d, 3)), dataset, StatekitError),
    "GramMatrix": (lambda d: np.eye(d), sk.GramMatrix, StatekitError),
    "SpectralProfile.eigenvalues": (lambda d: np.arange(d, dtype=float), profile, StatekitError),
    "SpectralProfile.mass_gap": (lambda d: np.ones(1), lambda g: profile(gap=g[0]), StatekitError),
    # d >= 2 zeros, so a grid with one entry replaced still holds its reference point
    "_profile_and_zeeman(epsilons)": (lambda d: np.repeat([0.0, 0.25], d), zeeman_sweep, StatekitError),
    "CurvatureScan.taus": (lambda d: np.geomspace(0.1, 1e-3, d), lambda t: curvature(t, np.ones(len(t))), StatekitError),
    "CurvatureScan.errors": (lambda d: np.ones(d), lambda e: curvature(np.geomspace(0.1, 1e-3, len(e)), e), StatekitError),
    "CurvatureScan.fitted_slope": (lambda d: np.ones(1), lambda s: curvature(slope=s[0]), StatekitError),
    "CurvatureScan.fit_residual": (lambda d: np.ones(1), lambda r: curvature(resid=r[0]), StatekitError),
    "CurvatureScan.commutator_norm": (lambda d: np.ones(1), lambda c: curvature(norm=c[0]), StatekitError),
    "information_curvature(taus)": (lambda d: np.geomspace(1.0, 1e-3, d + 4), curvature_scan, StatekitError),
}

# one input per type that passed every check before the non-finite guards
PASSED_BEFORE = {
    "StateVector": np.array([NAN, 1.0, 0.0, 0.0]),
    "DenseOperator": np.array([[NAN, 0.0], [0.0, 1.0]]),
    "HermitianOperator": np.diag([NAN, 1.0]),
    "SpectralDecomposition.eigenvalues": np.array([NAN, 1.0]),
    "SpectralDecomposition.eigenvectors": np.array([[1.0, 0.0], [0.0, NAN]]),
    "Distribution": np.array([NAN, 0.5, 0.5, 0.0]),
    "amplitude_encoding": np.array([INF, 1.0]),
    "phase_encoding": np.array([NAN, 0.0]),
    "HamiltonianSpec.fields": np.array([NAN, 0.5]),
    "HamiltonianSpec.coupling": np.array([[0.0, INF], [INF, 0.0]]),
    "HamiltonianSpec.mu": np.array([NAN]),
    "LabeledDataset": np.array([[NAN, 1.0], [1.0, 1.0]]),
    "GramMatrix": np.array([[1.0, NAN], [NAN, 1.0]]),
    "SpectralProfile.eigenvalues": np.array([0.0, INF]),
    "SpectralProfile.mass_gap": np.array([NAN]),
    "_profile_and_zeeman(epsilons)": np.array([0.0, INF]),
    "CurvatureScan.taus": np.array([INF, 0.1]),
    "CurvatureScan.errors": np.array([NAN, 1.0]),
    "CurvatureScan.fitted_slope": np.array([NAN]),
    "CurvatureScan.fit_residual": np.array([INF]),
    "CurvatureScan.commutator_norm": np.array([NAN]),
    "information_curvature(taus)": np.array([NAN, 1.0, 0.1, 0.01, 0.001]),  # once named as not monotone
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_valid_bases_accepted(name):
    make, build, _ = CASES[name]
    for d in (2, 4, 8):
        build(make(d))


@pytest.mark.parametrize("name", sorted(PASSED_BEFORE))
def test_rejects_non_finite(name):
    _, build, error = CASES[name]
    with pytest.raises(error, match="non-finite"):
        build(PASSED_BEFORE[name])


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_any_non_finite_entry_rejected(name, data):
    make, build, error = CASES[name]
    base = make(data.draw(st.sampled_from([2, 4, 8]), label="dim"))
    flat = base.ravel().copy()
    i = data.draw(st.integers(0, flat.size - 1), label="index")
    bad = data.draw(st.sampled_from([NAN, INF, -INF]), label="value")
    if np.iscomplexobj(flat) and data.draw(st.booleans(), label="imaginary"):
        flat[i] = complex(flat[i].real, bad)
    else:
        flat[i] = bad
    with pytest.raises(error):
        build(flat.reshape(base.shape))


# the constructors of arrays, each given a nested list with a bool among its numbers
ARRAY_CASES = sorted(name for name, (make, _, _) in CASES.items() if make(4).size > 1)


@pytest.mark.parametrize("name", ARRAY_CASES)
def test_a_bool_among_numbers_rejected(name):
    make, build, error = CASES[name]
    base = make(4)
    entries = base.astype(object).ravel()
    entries[0] = True  # numpy alone would read it as 1
    with pytest.raises(error, match="must be an array of numbers"):
        build(entries.reshape(base.shape).tolist())
