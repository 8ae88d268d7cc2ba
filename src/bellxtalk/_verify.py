"""verify's engine: its checks, their result and the block loop that runs them.

Only verify loads this module, with the oracles of _oracles it runs: cli
resolves each of these names from here on its first access (its module
__getattr__) and keeps it, so cli.run_verification and the rest stay the
public names. The commutator check is read through cli
(cli._max_commutator_norm, where the benchmark's tracer wraps it), the Bell
states and the commutator basis on _oracles, the validation and clamp on
bipartite and the kernels on _kernels, all when a run needs them, so a name
replaced on those modules is the one that runs.
"""

from __future__ import annotations

import operator

from . import _kernels, _oracles, bipartite, cli
from . import _np as np
from .observables import Record

#: verify tuples per block; the draws and every route and check run one block
#: at a time, so verify's memory stays at one block whatever --samples. Half
#: sweep's block, for a lower peak; column-slice checks pay for the blocks
VERIFY_BLOCK_ROWS = 2048

#: verify's checks, in the order it prints them and VerificationResult.maxima holds them
CHECKS = (
    "three-method max gap",
    "normalization error",
    "diagonal symmetry gap",
    "marginal deviation from 1/2",
    "closed-variant gap",
    "lifted commutator norm",
)


class VerificationResult(Record):
    """Worst-case deviations over the random draw set: each check's maximum, in CHECKS order."""

    samples: int
    seed: int
    maxima: tuple[float, ...]
    worst_tuple: tuple[float, float, float, float, int, int]

    def passes(self, tol: float) -> bool:
        """True when every check is within tol; a NaN fails its check."""
        return all(value <= tol for value in self.maxima)


def run_verification(samples: int = 10000, seed: int = 0) -> VerificationResult:
    """Cross-validate the three probability routes on random angle tuples.

    Draws (mu, eta, nu, zeta, s, t) uniformly, VERIFY_BLOCK_ROWS tuples
    at a time from _verify_draws, the same tuples for a seed whatever the
    block size. Each block's six columns are validated once, by the batch
    routes' rule, and the four probability kernels, looked up on _kernels
    when they run, take them directly; each output is clamped in place as
    the batch routes clamp it, so the checks read the same bits. The four
    Bell states, a table whose row 2s + t is bell_state_batch(s, t), are
    norm-checked by the brute-force route's rule, and the commutator basis is
    built from the current lifts, both once per run. Each block's routes and
    checks fold into running maxima, and its arrays are dropped before the
    next block's kernels run: memory stays at one block. Checks read column
    slices and views, not costlier axis=1 reductions (row sums add in
    m.sum(axis=1)'s order), and numpy folds them: a NaN anywhere a check
    reads makes it NaN. The worst tuple is the first row, over all blocks,
    with the largest three-method gap.
    """
    samples, seed = operator.index(samples), operator.index(seed)  # TypeError for a float
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if seed < 0:  # numpy's own message would not name the seed
        raise ValueError("seed must be a non-negative integer")
    maxima = np.full(len(CHECKS), -np.inf)
    worst_tuple = None
    clamped = bipartite._clamped
    bell = _oracles._unit_states(_oracles.bell_state_batch([0, 0, 1, 1], [0, 1, 0, 1]), 4)  # row 2s + t
    basis = _oracles.commutator_basis()
    for block in _verify_draws(samples, seed):
        *angles, s, t = columns = bipartite._validated_rows(*block)
        closed = clamped(_kernels.closed_joint(*columns))
        variant_gap = np.abs(closed - clamped(_kernels.closed_joint_alt(*columns))).max()
        amplitude = clamped(_kernels.amplitude_joint(*columns))
        brute = clamped(_kernels.bruteforce_joint(*angles, bell[2 * s + t]))

        gap = np.maximum(
            np.abs(closed - amplitude),
            np.maximum(np.abs(closed - brute), np.abs(amplitude - brute)),
        )
        worst, cell = divmod(int(gap.argmax()), 4)  # the first row holding the largest gap
        block_maxima = np.array([  # in CHECKS order
            gap[worst, cell],
            np.max([np.abs(m[:, 0] + m[:, 1] + m[:, 2] + m[:, 3] - 1.0) for m in (closed, amplitude, brute)]),
            np.maximum(np.abs(amplitude - amplitude[:, ::-1]), np.abs(brute - brute[:, ::-1])).max(),
            np.abs(brute[:, [0, 2, 0, 1]] + brute[:, [1, 3, 2, 3]] - 0.5).max(),
            variant_gap,
            cli._max_commutator_norm(*angles, basis),
        ])
        del closed, amplitude, brute, gap
        # the first row with the largest gap, a NaN counting as largest, as argmax counts it in a block
        if worst_tuple is None or (not block_maxima[0] <= maxima[0] and not np.isnan(maxima[0])):
            worst_tuple = tuple(column[worst].item() for column in columns)
        np.maximum(maxima, block_maxima, out=maxima)

    return VerificationResult(samples, seed, tuple(maxima.tolist()), worst_tuple)


def _verify_draws(samples: int, seed: int):
    """Yield verify's (mu, eta, nu, zeta, s, t) columns VERIFY_BLOCK_ROWS rows at a time.

    The rows are those of default_rng(seed) drawing the six whole columns in
    turn: four uniform angle columns, then the s and t bits. Each column has
    its own PCG64 stream, advanced once to where the column starts in that
    sequence. A uniform value takes one 64-bit word, so angle column k starts
    at word k*n. An integers(0, 2) value takes one 32-bit half of a word, so
    label column k starts at half q = k*n past word 4n: the stream advances
    4n + q // 2 words and, when q is odd, throws the low half away.
    """
    def positioned(words: int, skip_half: bool = False) -> np.random.Generator:
        bits = np.random.PCG64(seed)
        bits.advance(words)
        stream = np.random.Generator(bits)
        if skip_half:
            stream.integers(0, 2, 1)
        return stream

    angle_streams = [
        (positioned(k * samples), high)
        for k, high in enumerate(bipartite.ANGLE_BOUNDS.values())
    ]
    label_streams = [
        positioned(4 * samples + q // 2, q % 2 == 1) for q in (0, samples)
    ]
    for start in range(0, samples, VERIFY_BLOCK_ROWS):
        rows = min(VERIFY_BLOCK_ROWS, samples - start)
        yield (
            *(stream.uniform(0.0, high, rows) for stream, high in angle_streams),
            *(stream.integers(0, 2, rows) for stream in label_streams),
        )


def _max_commutator_norm(mu, eta, nu, zeta, basis=None) -> float:
    """Largest Frobenius norm of [A (x) I, I (x) B] over one block of rows; see _oracles.commutator_norms."""
    return float(_oracles.commutator_norms(mu, eta, nu, zeta, basis).max())
