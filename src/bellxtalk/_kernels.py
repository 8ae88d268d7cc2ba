"""Vectorized numpy kernels for the hot numeric paths.

Each kernel is defined as ``<name>_numpy`` and exported under the plain name
(``closed_joint``, ``closed_joint_alt``, ``amplitude_joint``,
``bruteforce_joint``, ``sample_counts``), which callers look up through this
module. Importing allocates no arrays.

``closed_joint`` is the production path: the correlation form (1 +- c)/4
with c = a.S b, where a and b are the Bloch vectors and S is the diagonal
sign matrix diag(1-2s, -(1-2s)(1-2t), 1-2t). The other three probability
kernels are the oracles it is checked against: the half-angle closed form,
the interference amplitudes and Born-rule brute force. Brute force works in
struct-of-arrays form, the row index last: its frames and the state are
(2, 2, n) stacks, contracted by broadcast multiply-adds over whole rows.

The sampler compares each 64-bit splitmix64 word with the integer bound
floor(c * 2^53) * 2^11 + 2047 of each cdf entry c, which holds for exactly
the draws whose top 53 bits, scaled to a double, are <= c.

Inputs are assumed pre-validated: angle arrays are 1-d float64 of one shared
length, s/t are int64 arrays of that length, psi is complex128 with shape
(n, 4). Probability outputs have shape (n, 4) in the fixed cell order
(0,0),(0,1),(1,0),(1,1) and are not clamped.
"""

from __future__ import annotations

import math

import numpy as np

# splitmix64 constants; draw i uses the mix of seed + (i+1)*GAMMA (mod 2^64)
_GAMMA_INT = 0x9E3779B97F4A7C15
_GAMMA = np.uint64(_GAMMA_INT)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SHIFT30, _SHIFT27, _SHIFT31 = np.uint64(30), np.uint64(27), np.uint64(31)
_U64_MAX = 2**64 - 1

#: draws mixed per chunk; the numpy sampler's three 512 KB uint64 buffers stay in L2
_SAMPLE_CHUNK = 1 << 16


def closed_joint_numpy(mu, eta, nu, zeta, s, t):
    """Joint probabilities (1 +- c)/4 from the correlation c = a.S b of the Bloch vectors."""
    sign_s = 1.0 - 2.0 * s
    sign_t = 1.0 - 2.0 * t
    c = sign_s * np.sin(mu) * np.sin(nu) * np.cos(eta + sign_t * zeta) + sign_t * np.cos(mu) * np.cos(nu)
    plus = 0.25 * (1.0 + c)
    minus = 0.25 * (1.0 - c)
    return np.stack([plus, minus, minus, plus], axis=1)


def closed_joint_alt_numpy(mu, eta, nu, zeta, s, t):
    """Closed forms in the half-angle sums; the every-call cross-check of closed_joint."""
    sign_s = 1.0 - 2.0 * s
    sign_t = 1.0 - 2.0 * t
    half_dif = 0.5 * (mu - sign_s * nu)
    half_azim = 0.5 * (eta + sign_t * zeta)
    t_is_0 = t == 0
    tr_t_dif = np.where(t_is_0, np.cos(half_dif), np.sin(half_dif))
    tr_t1_dif = np.where(t_is_0, np.sin(half_dif), np.cos(half_dif))
    tr_t1_azim = np.where(t_is_0, np.sin(half_azim), np.cos(half_azim))
    cross = np.cos(0.5 * mu) * np.cos(0.5 * nu) * np.sin(0.5 * mu) * np.sin(0.5 * nu)
    term = (2.0 * sign_s * sign_t) * (tr_t1_azim * tr_t1_azim) * cross
    diag = 0.5 * (tr_t_dif * tr_t_dif) - term
    off = 0.5 * (tr_t1_dif * tr_t1_dif) + term
    return np.stack([diag, off, off, diag], axis=1)


def amplitude_joint_numpy(mu, eta, nu, zeta, s, t):
    """Joint probabilities from the two-term interference amplitudes."""
    cm, sm = np.cos(0.5 * mu), np.sin(0.5 * mu)
    cn, sn = np.cos(0.5 * nu), np.sin(0.5 * nu)
    tr_m = (cm, sm)
    tr_n = (cn, sn)
    ph_a = np.exp(-1j * eta)
    ph_b = np.exp(-1j * zeta)
    ph_ab = ph_a * ph_b
    sign_s = 1.0 - 2.0 * s
    t_is_0 = t == 0
    out = np.empty((mu.shape[0], 4), dtype=np.float64)
    col = 0
    for k in (0, 1):
        sk = 1.0 - 2.0 * k
        for ell in (0, 1):
            sl = 1.0 - 2.0 * ell
            amp_t0 = (sk * sl) * ph_ab * (tr_m[k] * tr_n[ell]) + sign_s * (tr_m[1 - k] * tr_n[1 - ell])
            amp_t1 = sk * ph_a * (tr_m[k] * tr_n[1 - ell]) + (sign_s * sl) * ph_b * (tr_m[1 - k] * tr_n[ell])
            amp = np.where(t_is_0, amp_t0, amp_t1)
            out[:, col] = 0.5 * (amp.real * amp.real + amp.imag * amp.imag)
            col += 1
    return out


def _conjugate_frame(polar, azimuth):
    """conj(u[k, a]) of the eigenvector frame u_0 = (e^-i*phi c, s), u_1 = (-e^-i*phi s, c); shape (2, 2, n)."""
    c, sn = np.cos(0.5 * polar), np.sin(0.5 * polar)
    phase = np.exp(1j * azimuth)
    frame = np.empty((2, 2, polar.shape[0]), dtype=np.complex128)
    frame[0, 0] = phase * c
    frame[0, 1] = sn
    frame[1, 0] = -phase * sn
    frame[1, 1] = c
    return frame


def bruteforce_joint_numpy(mu, eta, nu, zeta, psi):
    """Born-rule probabilities |<u_k u_l|psi>|^2 against the eigenvector frame.

    Struct-of-arrays form, the row index last: psi is read as psi[a, b, n],
    contracted with conj(u_b[l, b]) over b and then with conj(u_a[k, a]) over
    a, each a two-term broadcast multiply-add. Any state psi is accepted.
    """
    n = mu.shape[0]
    ua = _conjugate_frame(mu, eta)
    ub = _conjugate_frame(nu, zeta)
    state = psi.T.reshape(2, 2, n)
    half = ub[:, None, 0] * state[None, :, 0] + ub[:, None, 1] * state[None, :, 1]  # [l, a, n]
    amps = ua[:, None, 0] * half[None, :, 0] + ua[:, None, 1] * half[None, :, 1]  # [k, l, n]
    return (amps.real * amps.real + amps.imag * amps.imag).reshape(4, n).T


def _draw_bound(c):
    """Largest 64-bit z whose draw (z >> 11) * 2^-53 is <= c; None when no z is.

    The draw is a 53-bit integer scaled by a power of two, so u <= c holds
    exactly when (z >> 11) <= floor(c * 2^53), that is when
    z <= floor(c * 2^53) * 2^11 + 2047.
    """
    if c < 0.0:
        return None
    if c >= 1.0:
        return _U64_MAX
    return (math.floor(c * 2.0 ** 53) << 11) | 2047


def sample_counts_numpy(cdf, n, seed):
    """Inverse-CDF counts for n splitmix64 draws, in chunks of _SAMPLE_CHUNK.

    Each draw is compared as an integer with one precomputed bound per cdf
    entry (see _draw_bound), so no draw is converted to float. Mixing runs in
    place in buffers allocated once per call and sized to stay in cache.
    """
    bounds = [_draw_bound(float(c)) for c in cdf[:3]]
    size = min(n, _SAMPLE_CHUNK)
    steps = np.arange(1, size + 1, dtype=np.uint64)
    steps *= _GAMMA  # steps[j] = (j+1)*GAMMA; chunk start adds start*GAMMA
    z_buf = np.empty(size, dtype=np.uint64)
    tmp_buf = np.empty(size, dtype=np.uint64)
    hit_buf = np.empty(size, dtype=bool)
    at_most = [0, 0, 0]  # draws with u <= cdf[k]
    for start in range(0, n, size):
        m = min(size, n - start)
        z, tmp, hit = z_buf[:m], tmp_buf[:m], hit_buf[:m]
        np.add(steps[:m], np.uint64((int(seed) + start * _GAMMA_INT) & _U64_MAX), out=z)
        np.right_shift(z, _SHIFT30, out=tmp)
        z ^= tmp
        z *= _MIX1
        np.right_shift(z, _SHIFT27, out=tmp)
        z ^= tmp
        z *= _MIX2
        np.right_shift(z, _SHIFT31, out=tmp)
        z ^= tmp
        for k, bound in enumerate(bounds):
            if bound == _U64_MAX:
                at_most[k] += m
            elif bound is not None:
                np.less_equal(z, np.uint64(bound), out=hit)
                at_most[k] += int(np.count_nonzero(hit))
    le0, le1, le2 = at_most
    return np.array([le0, le1 - le0, le2 - le1, n - le2], dtype=np.int64)


closed_joint = closed_joint_numpy
closed_joint_alt = closed_joint_alt_numpy
amplitude_joint = amplitude_joint_numpy
bruteforce_joint = bruteforce_joint_numpy
sample_counts = sample_counts_numpy
