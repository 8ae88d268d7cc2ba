"""Vectorized numpy kernels for the hot numeric paths.

Callers look each kernel (``closed_joint``, ``closed_joint_alt``,
``amplitude_joint``, ``bruteforce_joint``, ``sample_counts``) up through this
module.

``closed_joint`` is the production path: the correlation form (1 +- c)/4
with c = a.S b, where a and b are the Bloch vectors and S is the diagonal
sign matrix diag(1-2s, -(1-2s)(1-2t), 1-2t). The other three probability
kernels are the oracles it is checked against: the half-angle closed form,
the interference amplitudes and Born-rule brute force. Brute force contracts
the state with the two eigenvector frames entry by entry: each frame entry
u[k][a] and state entry psi[a][b] is one row value (a column of n rows, or
one number), combined by two-term multiply-adds.

The sampler compares each 64-bit splitmix64 word with the integer bound
floor(c * 2^53) * 2^11 + 2047 of each cdf entry c, which holds for exactly
the draws whose top 53 bits, scaled to a double, are <= c.

Inputs are assumed pre-validated: angle arrays are 1-d float64 of one shared
length, s/t are int64 arrays of that length, psi is complex128 with shape
(n, 4). Probability outputs have shape (n, 4) in the fixed cell order
(0,0),(0,1),(1,0),(1,1) and are not clamped. The ndarray route allocates the
output once and fills it tile by tile, _TILE = 1024 rows at a time, from the
cell helper evaluated on that tile's rows. A tile's row temporaries are then
8 KB (float) or 16 KB (complex), below glibc's 128 KB mmap threshold, so they
are reused from the heap rather than mapped and page-faulted afresh in every
call, and the cells of the whole input are never held at once. Every cell is
elementwise in its rows, so the bits do not depend on the tiling.

The four probability kernels also take lists of floats and 0/1 ints (brute
force: a list of rows of 4 numbers for psi), which the one-pair routes pass
as one-element lists. They choose by the type of mu: a list goes row by row
through math and cmath on plain numbers and gives a list of n tuples of 4
floats, anything else goes through numpy and gives an (n, 4) float64
ndarray. The closed kernels, which every one-pair query runs, index the
lists in a plain loop: a comprehension is a function call of its own, and
zipping makes a tuple per row to unpack. Each kernel's cells are
written once, in a helper that takes sin, cos and, as the kernel needs
them, exp and where as arguments. The list route touches no numpy name, so
it never loads numpy (see _np). For the closed kernels it gives the ndarray
route's bits wherever math and numpy round sin and cos alike. For the amplitude and brute-force kernels it can
differ in the last bit or two: CPython's complex product rounds each of its
two sums of products separately, where numpy's SIMD product may fuse them
(FMA).
"""

from __future__ import annotations

import math

from . import _np as np

# splitmix64 constants; draw i uses the mix of seed + (i+1)*GAMMA (mod 2^64)
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_U64_MAX = 2**64 - 1

#: draws mixed per chunk; the numpy sampler's three 256 KB uint64 buffers stay in L2
_SAMPLE_CHUNK = 1 << 15
#: rows per slice of a probability kernel's ndarray output; see the module docstring
_TILE = 1024


def _tiled(cells, columns, *funcs):
    """The (n, 4) float64 array of cells(*columns, *funcs), filled one _TILE-row slice at a time.

    Each column is sliced on its last axis, which holds the rows.
    """
    out = np.empty((columns[0].shape[-1], 4))
    for start in range(0, len(out), _TILE):
        rows = slice(start, start + _TILE)
        out[rows].T[...] = cells(*[column[..., rows] for column in columns], *funcs)  # cell k to column k
    return out


def _closed_cells(mu, eta, nu, zeta, s, t, sin, cos):
    """Cells (1 + c, 1 - c, 1 - c, 1 + c)/4 of the correlation c = a.S b of the Bloch vectors."""
    sign_s = 1.0 - 2.0 * s
    sign_t = 1.0 - 2.0 * t
    c = sign_s * sin(mu) * sin(nu) * cos(eta + sign_t * zeta) + sign_t * cos(mu) * cos(nu)
    plus = 0.25 * (1.0 + c)
    minus = 0.25 * (1.0 - c)
    return plus, minus, minus, plus


def _closed_alt_cells(mu, eta, nu, zeta, s, t, sin, cos, where):
    """Cells (diag, off, off, diag) of the closed forms in the half-angle sums."""
    sign_s = 1.0 - 2.0 * s
    sign_t = 1.0 - 2.0 * t
    half_dif = 0.5 * (mu - sign_s * nu)
    half_azim = 0.5 * (eta + sign_t * zeta)
    t_is_0 = t == 0
    cos_dif, sin_dif = cos(half_dif), sin(half_dif)
    tr_t_dif = where(t_is_0, cos_dif, sin_dif)
    tr_t1_dif = where(t_is_0, sin_dif, cos_dif)
    tr_t1_azim = where(t_is_0, sin(half_azim), cos(half_azim))
    half_mu, half_nu = 0.5 * mu, 0.5 * nu
    cross = cos(half_mu) * cos(half_nu) * sin(half_mu) * sin(half_nu)
    term = (2.0 * sign_s * sign_t) * (tr_t1_azim * tr_t1_azim) * cross
    diag = 0.5 * (tr_t_dif * tr_t_dif) - term
    off = 0.5 * (tr_t1_dif * tr_t1_dif) + term
    return diag, off, off, diag


def _pick(condition, if_true, if_false):
    """np.where for one row of plain values."""
    return if_true if condition else if_false


def closed_joint(mu, eta, nu, zeta, s, t):
    """Joint probabilities (1 +- c)/4 from the correlation c = a.S b of the Bloch vectors."""
    if isinstance(mu, list):
        rows = []
        for i in range(len(mu)):
            rows.append(_closed_cells(mu[i], eta[i], nu[i], zeta[i], s[i], t[i], math.sin, math.cos))
        return rows
    return _tiled(_closed_cells, (mu, eta, nu, zeta, s, t), np.sin, np.cos)


def closed_joint_alt(mu, eta, nu, zeta, s, t):
    """Closed forms in the half-angle sums; the every-call cross-check of closed_joint."""
    if isinstance(mu, list):
        rows = []
        for i in range(len(mu)):
            rows.append(_closed_alt_cells(mu[i], eta[i], nu[i], zeta[i], s[i], t[i], math.sin, math.cos, _pick))
        return rows
    return _tiled(_closed_alt_cells, (mu, eta, nu, zeta, s, t), np.sin, np.cos, np.where)


def _amplitude_cells(mu, eta, nu, zeta, s, t, sin, cos, exp, where):
    """Cells 0.5*|amp|^2 of the two-term interference amplitudes, in INDEX_ORDER.

    Each product tr_m[i] * tr_n[j] and each signed phase is formed once,
    from the same operands as written out per cell, so the bits are the same.
    """
    tr_m = (cos(0.5 * mu), sin(0.5 * mu))
    tr_n = (cos(0.5 * nu), sin(0.5 * nu))
    tr = [[tr_m[i] * tr_n[j] for j in (0, 1)] for i in (0, 1)]
    ph_a = exp(-1j * eta)
    ph_b = exp(-1j * zeta)
    ph_ab = ph_a * ph_b
    sign_s = 1.0 - 2.0 * s
    t_is_0 = t == 0
    signs = (1.0, -1.0)  # 1 - 2k for k = 0, 1, and (1 - 2k)(1 - 2l) for k ^ l = 0, 1
    ph_ab_by = [sign * ph_ab for sign in signs]
    ph_a_by = [sign * ph_a for sign in signs]
    ph_b_by = [(sign_s * sign) * ph_b for sign in signs]
    cells = []
    for k in (0, 1):
        for ell in (0, 1):
            amp_t0 = ph_ab_by[k ^ ell] * tr[k][ell] + sign_s * tr[1 - k][1 - ell]
            amp_t1 = ph_a_by[k] * tr[k][1 - ell] + ph_b_by[ell] * tr[1 - k][ell]
            amp = where(t_is_0, amp_t0, amp_t1)
            cells.append(0.5 * (amp.real * amp.real + amp.imag * amp.imag))
    return tuple(cells)


def _conjugate_frame(polar, azimuth, sin, cos, exp):
    """conj(u[k][a]) of the eigenvector frame u_0 = (e^-i*phi c, s), u_1 = (-e^-i*phi s, c), row k first."""
    c, sn = cos(0.5 * polar), sin(0.5 * polar)
    phase = exp(1j * azimuth)
    return (phase * c, sn), (-phase * sn, c)


def _bruteforce_cells(mu, eta, nu, zeta, psi, sin, cos, exp):
    """Cells |<u_k u_l|psi>|^2, in INDEX_ORDER, of the state entries psi[2a + b].

    psi[a][b] is contracted with conj(u_b[l][b]) over b and then with
    conj(u_a[k][a]) over a, each a two-term multiply-add of row values.
    """
    ua = _conjugate_frame(mu, eta, sin, cos, exp)
    ub = _conjugate_frame(nu, zeta, sin, cos, exp)
    state = (psi[0], psi[1]), (psi[2], psi[3])
    half = [[ub[ell][0] * state[a][0] + ub[ell][1] * state[a][1] for a in (0, 1)] for ell in (0, 1)]
    amps = [ua[k][0] * half[ell][0] + ua[k][1] * half[ell][1] for k in (0, 1) for ell in (0, 1)]
    return tuple(amp.real * amp.real + amp.imag * amp.imag for amp in amps)


def amplitude_joint(mu, eta, nu, zeta, s, t):
    """Joint probabilities from the two-term interference amplitudes."""
    if isinstance(mu, list):
        import cmath

        return [_amplitude_cells(*row, math.sin, math.cos, cmath.exp, _pick) for row in zip(mu, eta, nu, zeta, s, t)]
    return _tiled(_amplitude_cells, (mu, eta, nu, zeta, s, t), np.sin, np.cos, np.exp, np.where)


def bruteforce_joint(mu, eta, nu, zeta, psi):
    """Born-rule probabilities |<u_k u_l|psi>|^2 against the eigenvector frame; any state psi is accepted.

    psi is an (n, 4) complex array, whose columns are the row values, or a
    list of n rows of 4 numbers.
    """
    if isinstance(mu, list):
        import cmath

        return [_bruteforce_cells(*row, math.sin, math.cos, cmath.exp) for row in zip(mu, eta, nu, zeta, psi)]
    return _tiled(_bruteforce_cells, (mu, eta, nu, zeta, psi.T), np.sin, np.cos, np.exp)


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


def sample_counts(cdf, n, seed):
    """Inverse-CDF counts for n splitmix64 draws, in chunks of _SAMPLE_CHUNK.

    Each draw is compared as an integer with one precomputed bound per cdf
    entry (see _draw_bound), so no draw is converted to float. Mixing runs in
    place in buffers allocated once per call and sized to stay in cache.
    """
    gamma, mix1, mix2 = np.uint64(_GAMMA), np.uint64(_MIX1), np.uint64(_MIX2)
    shift30, shift27, shift31 = np.uint64(30), np.uint64(27), np.uint64(31)
    bounds = [_draw_bound(float(c)) for c in cdf[:3]]
    size = min(n, _SAMPLE_CHUNK)
    steps = np.arange(1, size + 1, dtype=np.uint64)
    steps *= gamma  # steps[j] = (j+1)*GAMMA; chunk start adds start*GAMMA
    z_buf = np.empty(size, dtype=np.uint64)
    tmp_buf = np.empty(size, dtype=np.uint64)
    hit_buf = np.empty(size, dtype=bool)
    at_most = [0, 0, 0]  # draws with u <= cdf[k]
    for start in range(0, n, size):
        m = min(size, n - start)
        z, tmp, hit = z_buf[:m], tmp_buf[:m], hit_buf[:m]
        np.add(steps[:m], np.uint64((int(seed) + start * _GAMMA) & _U64_MAX), out=z)
        np.right_shift(z, shift30, out=tmp)
        z ^= tmp
        z *= mix1
        np.right_shift(z, shift27, out=tmp)
        z ^= tmp
        z *= mix2
        np.right_shift(z, shift31, out=tmp)
        z ^= tmp
        for k, bound in enumerate(bounds):
            if bound == _U64_MAX:
                at_most[k] += m
            elif bound is not None:
                np.less_equal(z, np.uint64(bound), out=hit)
                at_most[k] += int(np.count_nonzero(hit))
    le0, le1, le2 = at_most
    return np.array([le0, le1 - le0, le2 - le1, n - le2], dtype=np.int64)


#: only for perfbench's test_removed_function_is_absent_not_fatal, which checks
#: that the tracer puts closed_joint back by comparing it with this name
closed_joint_numpy = closed_joint
