"""Grid containers, the guard band, memory caps, and the checkpoint format."""
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mflab.quantum import (
    DensityMatrix,
    FactoredCoupling,
    GridSpec,
    GuardBandError,
    ResourceCapError,
    WaveFunction,
    check_guard_band,
    coherent_state,
    guard_band_mass,
    load_state,
    memory_cap_bytes,
    save_state,
    state_density_matrix,
    trace_product,
)
from mflab.quantum.grids import MEMORY_CAP_ENV


def _grid(n=64, L=6.0, eps=0.25, **kw):
    return GridSpec(1, 1, n, L, eps, **kw)


def test_grid_geometry():
    g = _grid(n=8, L=4.0)
    assert g.h == pytest.approx(1.0)
    np.testing.assert_allclose(g.axis_points(), np.arange(8) - 4.0)
    np.testing.assert_allclose(g.wavenumbers(), 2 * np.pi * np.fft.fftfreq(8, d=1.0))
    assert g.shape() == (8,)
    assert g.n_axes == 1
    assert GridSpec(1, 4, 8, 4.0, 0.25).n_axes == 4


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(1, 1, 48, 4.0, 0.25)  # not a power of two
    with pytest.raises(ValueError):
        GridSpec(0, 1, 8, 4.0, 0.25)
    with pytest.raises(ValueError):
        GridSpec(1, 1, 8, -1.0, 0.25)
    with pytest.raises(ValueError):
        GridSpec(1, 1, 8, 4.0, 0.0)


def test_memory_cap_env_override(monkeypatch):
    monkeypatch.setenv(MEMORY_CAP_ENV, "1000000")
    assert memory_cap_bytes() == 1_000_000
    # 16 * 128^4 bytes = 4.3 GB needs a four-particle 128-point grid
    with pytest.raises(ResourceCapError):
        GridSpec(1, 4, 128, 6.0, 0.25)
    monkeypatch.setenv(MEMORY_CAP_ENV, "-3")
    with pytest.raises(ValueError):
        memory_cap_bytes()
    monkeypatch.delenv(MEMORY_CAP_ENV)
    assert memory_cap_bytes() == 2 * 1024**3


def test_wavefunction_normalization_enforced():
    g = _grid()
    vals = np.ones(g.shape(), dtype=complex)
    with pytest.raises(ValueError):
        WaveFunction(g, vals)
    psi = WaveFunction(g, vals / np.sqrt(np.sum(np.abs(vals) ** 2) * g.h))
    assert psi.norm() == pytest.approx(1.0, abs=1e-12)


def test_density_matrix_checks():
    g = _grid(n=64)
    psi = coherent_state(g, 0.0, 0.0)
    rho = state_density_matrix(psi)
    assert rho.trace() == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(rho.matrix).min() * rho.quad_weight >= -1e-12
    assert trace_product(rho, rho) == pytest.approx(1.0, abs=1e-10)  # pure state
    with pytest.raises(ValueError):
        DensityMatrix(g, np.eye(64, dtype=complex) + 1j * np.eye(64, k=1))
    with pytest.raises(ValueError):
        DensityMatrix(g, np.eye(64, dtype=complex))  # trace h*64 != 1


def test_hermitian_check_in_row_blocks_matches_the_dense_rule():
    # 512 points: row blocks of PAIR_BLOCK // 512 = 64 rows.  A skew entry
    # in the first or the last block is judged as max|m - m^H| against
    # 1e-10 * max|m| over the whole matrix judges it
    g = _grid(n=512)
    base = state_density_matrix(coherent_state(g, 0.2, -0.1)).matrix
    scale = np.max(np.abs(base))
    for i, j in [(0, 1), (511, 3), (500, 510)]:
        for factor, hermitian in [(0.9, True), (1.1, False)]:
            m = base.copy()
            m[i, j] += 1e-10 * scale * factor
            assert (np.max(np.abs(m - m.conj().T)) <= 1e-10 * np.max(np.abs(m))) == hermitian
            if hermitian:
                DensityMatrix(g, m)
            else:
                with pytest.raises(ValueError, match="not Hermitian"):
                    DensityMatrix(g, m)


def test_hermitian_check_judges_each_reused_block_at_the_threshold():
    # 256 points: two row blocks of 128 rows share one complex and one float
    # scratch block.  A skew just above 1e-10 of the largest entry, in either
    # block and after a clean one, is rejected; just below it is accepted
    g = _grid(n=256)
    base = state_density_matrix(coherent_state(g, 0.4, -0.3)).matrix
    scale = np.max(np.abs(base))
    for i, j in [(5, 200), (200, 5), (255, 254)]:
        for factor, hermitian in [(1 - 1e-6, True), (1 + 1e-6, False)]:
            m = base.copy()
            m[i, j] += 1e-10 * scale * factor
            assert (np.max(np.abs(m - m.conj().T)) <= 1e-10 * np.max(np.abs(m))) == hermitian
            if hermitian:
                DensityMatrix(g, m)
            else:
                with pytest.raises(ValueError, match="not Hermitian"):
                    DensityMatrix(g, m)
    # the scratch is the two 128-row blocks, 0.75 MiB; a fresh conjugate
    # block and two np.abs arrays a block peaked at 1.13 MiB
    tracemalloc.start()
    try:
        DensityMatrix(g, base)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"traced peak {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("n", [16, 64])
def test_trace_product_matches_the_matrix_product(n):
    g = _grid(n=n)
    rng = np.random.default_rng(n)

    def random_density():
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        m = a @ a.conj().T
        return DensityMatrix(g, m / (np.real(np.trace(m)) * g.h))

    a, b = random_density(), random_density()
    want = float(np.real(np.trace(a.matrix @ b.matrix))) * g.h**2
    assert trace_product(a, b) == pytest.approx(want, rel=1e-12)
    assert trace_product(b, a) == pytest.approx(want, rel=1e-12)


def test_guard_band_accepts_centered_state():
    psi = coherent_state(_grid(), 0.3, -0.2)
    mass = check_guard_band(psi)
    assert mass == pytest.approx(1.0, abs=1e-10)


def test_guard_band_trips_on_shifted_state():
    g = _grid()
    x = g.axis_points()
    # a normalized bump parked outside half the box
    vals = np.exp(-((x - 2.5) ** 2) / 0.5).astype(complex)
    vals /= np.sqrt(np.sum(np.abs(vals) ** 2) * g.h)
    psi = WaveFunction(g, vals)
    assert guard_band_mass(psi) < 1.0 - 1e-10
    with pytest.raises(GuardBandError):
        check_guard_band(psi)


def test_guard_band_mass_masks_one_probability_array():
    # N = 3 at 64 points: |values|^2 is half the state's bytes and is masked
    # in place; a masked copy per axis makes the peak one state
    g = GridSpec(1, 3, 64, 8.0, 0.25)
    psi = coherent_state(g, [0.3] * 3, [-0.2] * 3)
    tracemalloc.start()
    try:
        mass = guard_band_mass(psi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mass == pytest.approx(1.0, abs=1e-10)
    assert peak <= 0.6 * psi.values.nbytes, f"traced peak {peak / psi.values.nbytes:.2f} states"


def test_coherent_center_near_edge_rejected():
    with pytest.raises((ValueError, GuardBandError)):
        coherent_state(_grid(), 5.7, 0.0)  # position tail leaves the box
    with pytest.raises((ValueError, GuardBandError)):
        coherent_state(_grid(), 0.0, 50.0)  # momentum beyond the band


def test_checkpoint_round_trip(tmp_path):
    base = _grid()
    xs = [
        WaveFunction(base, coherent_state(base, q, p).values, 0.5)
        for q, p in ((0.2, 0.4), (-0.3, 0.1))
    ]
    y = coherent_state(replace(base, n_particles=2), [0.1, -0.2], [0.0, 0.3])
    state = FactoredCoupling(xs, WaveFunction(y.grid, y.values, 0.5))
    path = tmp_path / "state.mflabst"
    save_state(path, state)
    back = load_state(path)
    assert isinstance(back, FactoredCoupling) and len(back.xs) == 2
    for got, want in zip(back.factors, state.factors):
        assert got.grid == want.grid
        assert got.time == want.time
        np.testing.assert_array_equal(got.values, want.values)  # lossless


def test_checkpoint_rejects_version_1(tmp_path):
    # version 1 held one array on the 2N-particle grid
    path = tmp_path / "old.mflabst"
    path.write_bytes(b"MFLABST1" + b"\x00" * 64)
    with pytest.raises(ValueError, match="version 1"):
        load_state(path)


def test_checkpoint_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTMFLAB" + b"\x00" * 64)
    with pytest.raises(ValueError):
        load_state(path)
