"""Independent dense reference implementation used by the tests.

Everything here is built from first principles with Kronecker products and
scipy's dense matrix exponential, without importing the package, so that
agreement between the two is evidence and not circularity.  Site 1 is the
leftmost tensor factor (most significant bit).
"""
from itertools import combinations

import numpy as np
from scipy.linalg import expm

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_I_POWERS = (1 + 0j, 1j, -1 + 0j, -1j)


def kron_all(mats):
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def site_operator(n, site, letter):
    """Single-site Pauli embedded in an n-site chain (1-based site)."""
    mats = [PAULI["I"]] * n
    mats[site - 1] = PAULI[letter]
    return kron_all(mats)


def string_operator(n, letters):
    return kron_all([PAULI[l] for l in letters])


def chain_hamiltonian(couplings):
    """Sum of J_i (X_i X_{i+1} + Y_i Y_{i+1}) assembled term by term."""
    n = len(couplings) + 1
    dim = 2**n
    h = np.zeros((dim, dim), dtype=complex)
    for i, j_val in enumerate(couplings, start=1):
        for letter in ("X", "Y"):
            h += j_val * (site_operator(n, i, letter) @ site_operator(n, i + 1, letter))
    return h


def evolution_operator(couplings, t):
    return expm(-1j * t * chain_hamiltonian(couplings))


def heisenberg_conjugate(op, couplings, t):
    u = evolution_operator(couplings, t)
    return u.conj().T @ op @ u


def alternating_string(n, k, origin="site1"):
    """k-th member of the operator family an evolved end-site X spans."""
    end = "X" if k % 2 == 1 else "Y"
    letters = ["I"] * n
    if origin == "site1":
        for j in range(k - 1):
            letters[j] = "Z"
        letters[k - 1] = end
    else:
        for j in range(n - k + 1, n):
            letters[j] = "Z"
        letters[n - k] = end
    return string_operator(n, letters)


def string_coefficients(couplings, t, origin="site1"):
    """Project the conjugated end-site X onto the alternating family."""
    n = len(couplings) + 1
    site = 1 if origin == "site1" else n
    evolved = heisenberg_conjugate(site_operator(n, site, "X"), couplings, t)
    coeffs = []
    for k in range(1, n + 1):
        s = alternating_string(n, k, origin)
        coeffs.append(np.real(np.trace(s @ evolved)) / 2**n)
    return np.array(coeffs)


def staggered_generator(rates):
    """Dense M with d alpha/dt = M alpha for the string coefficients of
    string_coefficients: real antisymmetric, the coupling rates g_i = 2 J_i
    below the diagonal with staggered signs +g_1, -g_2, +g_3, ... (what
    i[H, s_k] gives in the alternating X/Y string basis)."""
    n = len(rates) + 1
    m = np.zeros((n, n))
    for i, g in enumerate(rates):
        signed = g if i % 2 == 0 else -g
        m[i + 1, i] = signed
        m[i, i + 1] = -signed
    return m


def reduce_to_last_site(rho, n):
    """Partial trace onto site n by explicit block summation."""
    half = 2 ** (n - 1)
    shaped = rho.reshape(half, 2, half, 2)
    out = np.zeros((2, 2), dtype=complex)
    for a in range(half):
        out += shaped[a, :, a, :]
    return out


def gibbs_state(hamiltonian, beta):
    shifted = expm(-beta * (hamiltonian - np.min(np.linalg.eigvalsh(hamiltonian)) * np.eye(len(hamiltonian))))
    return shifted / np.trace(shifted)


def random_pure(rng, n):
    psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return psi / np.linalg.norm(psi)


def random_mixed(rng, n, terms=3):
    dim = 2**n
    rho = np.zeros((dim, dim), dtype=complex)
    weights = rng.random(terms)
    weights /= weights.sum()
    for w in weights:
        psi = random_pure(rng, n)
        rho += w * np.outer(psi, psi.conj())
    return rho


def protocol_branches(couplings, t, rho_in, medium, apply_correction=True):
    """Brute-force the full measurement protocol with explicit projectors.

    Returns a list of (outcome_pre, outcome_post, weight, output_2x2)
    over all branches with nonvanishing probability.  The site-N starting
    state is |0><0|.
    """
    n = len(couplings) + 1
    u = evolution_operator(couplings, t)
    i_n = _I_POWERS[n % 4]
    eye_front = np.eye(2 ** (n - 1), dtype=complex)
    ket0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    branches = []
    for o_pre in (1, -1):
        v = np.array([1.0, o_pre * i_n]) / np.sqrt(2.0)
        proj_pre = np.kron(eye_front, np.outer(v, v.conj()))
        rho0 = np.kron(np.kron(rho_in, medium), ket0)
        rho1 = proj_pre @ rho0 @ proj_pre
        p_pre = float(np.real(np.trace(rho1)))
        if p_pre < 1e-14:
            continue
        rho1 = u @ (rho1 / p_pre) @ u.conj().T
        for o_post in (1, -1):
            w_vec = np.array([1.0, o_post]) / np.sqrt(2.0)
            proj_post = np.kron(np.outer(w_vec, w_vec.conj()), eye_front)
            rho2 = proj_post @ rho1 @ proj_post
            p_post = float(np.real(np.trace(rho2)))
            if p_post < 1e-14:
                continue
            out = reduce_to_last_site(rho2 / p_post, n)
            if apply_correction:
                phase = i_n if o_pre * o_post > 0 else -i_n
                corr = np.diag([1.0, phase])
                out = corr @ out @ corr.conj().T
            branches.append((o_pre, o_post, p_pre * p_post, out))
    return branches


def qubit_fidelity(rho, sigma):
    """Two-by-two closed form, clipping tiny negative determinants."""
    det_r = max(float(np.real(np.linalg.det(rho))), 0.0)
    det_s = max(float(np.real(np.linalg.det(sigma))), 0.0)
    return float(np.real(np.trace(rho @ sigma)) + 2.0 * np.sqrt(det_r * det_s))


def pfaffian(matrices) -> np.ndarray:
    """Pfaffians of a stack of antisymmetric matrices of even size, shape
    (..., m, m).

    Parlett-Reid elimination with partial pivoting, one pass for the whole
    stack: each step swaps the largest entry below the diagonal of column k
    into row k + 1 and eliminates with it, O(m^3) per matrix.  A pivot
    column of zeros makes that Pfaffian exactly 0.
    """
    a = np.array(matrices, dtype=complex)
    shape, m = a.shape[:-2], a.shape[-1]
    if a.shape[-2] != m or m % 2:
        raise ValueError(f"expected square matrices of even size, got shape {a.shape}")
    a = a.reshape(-1, m, m)
    stack = np.arange(len(a))
    pf = np.ones(len(a), dtype=complex)
    for k in range(0, m - 1, 2):
        piv = k + 1 + np.argmax(np.abs(a[:, k + 1:, k]), axis=1)
        pf[piv != k + 1] *= -1.0
        rows = a[stack, piv].copy()
        a[stack, piv] = a[:, k + 1]
        a[:, k + 1] = rows
        cols = a[stack, :, piv].copy()
        a[stack, :, piv] = a[:, :, k + 1]
        a[:, :, k + 1] = cols
        pivot = a[:, k, k + 1]
        pf *= pivot
        # a zero pivot has zeroed pf; divide by 1 so the stack stays finite
        tau = a[:, k, k + 2:] / np.where(pivot == 0, 1.0, pivot)[:, None]
        col = a[:, k + 2:, k + 1]
        a[:, k + 2:, k + 2:] += tau[:, :, None] * col[:, None, :] - col[:, :, None] * tau[:, None, :]
    return pf.reshape(shape)


def slater_end_expectations(couplings, t, bloch, end_phase, orbitals=()):
    """<X_1>, <X_N>, <Y_N>, <Z_N>, <X_1 X_N>, <X_1 Y_N>, <X_1 Z_N> at time t
    for rho_1 (x) M (x) |kappa><kappa|, kappa = (|0> + c|1>)/sqrt(2) with
    c = end_phase, rho_1 the qubit with Bloch vector ``bloch``, and M the
    interior state with one excitation in each of ``orbitals`` (orthonormal
    vectors on sites 2..N-1) and none elsewhere; no orbitals is the
    all-zero medium.

    The chain conserves the number of excitations, which move as free
    fermions that cannot pass each other: a state with excitations in the
    orbitals phi_1, ..., phi_k, listed in site order, has amplitude
    det((u phi)[T]) on the sites T (sorted), u = e^{-iht} and h the hopping
    matrix with entries 2 J_i.  So the state stays in the span of basis
    states with at most k + 2 excitations (1 + N + N(N-1)/2 of them for the
    all-zero medium), and long chains are in reach.  The expectations are
    read from the reduced state of sites 1 and N.
    """
    n = len(couplings) + 1
    h = np.zeros((n, n))
    for i, j_val in enumerate(couplings):
        h[i, i + 1] = h[i + 1, i] = 2.0 * j_val
    u = expm(-1j * t * h)
    ends = np.eye(n)[:, [0, -1]]
    medium = np.zeros((n, len(orbitals)), dtype=complex)
    for j, orbital in enumerate(orbitals):
        medium[1:-1, j] = orbital
    interior = [s for k in range(len(orbitals) + 3) for s in combinations(range(1, n - 1), k)]
    position = {s: i for i, s in enumerate(interior)}
    # amplitude[S, (a, b), (a0, b0)]: the basis state |a> (x) |S> (x) |b>, S
    # the occupied interior sites, in the image of |a0> (x) M (x) |b0>
    amplitude = np.zeros((len(interior), 4, 4), dtype=complex)
    for col, (a0, b0) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        evolved = u @ np.column_stack([ends[:, :a0], medium, ends[:, 2 - b0:]])
        k = evolved.shape[1]
        targets = list(combinations(range(n), k))
        dets = np.linalg.det(evolved[np.array(targets, dtype=int).reshape(len(targets), k)])
        for sites, det in zip(targets, dets):
            a, b = int(0 in sites), int(n - 1 in sites)
            amplitude[position[sites[a:k - b]], 2 * a + b, col] = det
    x, y, z = bloch
    kappa = np.array([1.0, end_phase]) / np.sqrt(2.0)
    rho_0 = np.kron((PAULI["I"] + x * PAULI["X"] + y * PAULI["Y"] + z * PAULI["Z"]) / 2.0,
                    np.outer(kappa, kappa.conj()))
    ends_state = np.einsum("sac,cd,sbd->ab", amplitude, rho_0, amplitude.conj())
    pairs = ("XI", "IX", "IY", "IZ", "XX", "XY", "XZ")
    return np.array([np.real(np.trace(np.kron(PAULI[p], PAULI[q]) @ ends_state)) for p, q in pairs])
