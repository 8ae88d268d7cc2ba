"""One block of the sweep CSV: its probabilities, information columns and rows.

cli.cmd_sweep builds each block's grid and calls write_block on it. Each
array of a block is dropped at its last use and none outlives the call, so
the next block's kernel runs with nothing of this one left.
"""

from __future__ import annotations

from . import _np as np
from . import _text, bipartite, information


def write_block(handle, grid, label, tol: float) -> None:
    """Write the CSV rows of one block of the grid to handle.

    grid maps each angle to its block values and each row's index into them
    (see cli._sweep_grid). Every float's text is ``"%.17g" % x``, made by
    ``_text.floats``: each number column is replaced by its text as soon as
    it is formatted, and the four angles' values are formatted in one call
    and gathered by row index a slice at a time. The rows are Bell-shaped as
    joint_closed_batch gives them, p11 == p00 and p10 == p01 bit for bit, so
    the information columns are computed from the p00 and p01 columns alone
    and p11 and p10 reuse their texts. The label bits are the same on every
    row and stay 0-stride views through the kernel. The rows go to handle as
    str, 512 at a time, so any text handle takes them: the --out temp file,
    sys.stdout or a StringIO.
    """
    values, indexes = zip(*map(grid.get, bipartite.ANGLE_BOUNDS))
    s, t = (np.broadcast_to(bit, indexes[0].shape) for bit in (label.s, label.t))  # 0-stride views
    probs = bipartite.joint_closed_batch(*(axis[index] for axis, index in zip(values, indexes)), s, t)
    p00, p01 = probs[:, 0], probs[:, 1]
    entropy = information.shannon_entropy_rows(p00, p01)
    mutual = information.mutual_information_rows(p00, p01)
    degree = information.degree_rows(mutual)
    flags = (np.abs(p00 - 0.25) <= tol).astype(np.uint8)[:, None] + ord("0")  # 0 or 1
    p00, p01 = _text.floats(p00), _text.floats(p01)
    del probs
    entropy = _text.floats(entropy)
    mutual = _text.floats(mutual)
    degree = _text.floats(degree)
    angles = np.split(_text.floats(np.concatenate(values)), np.cumsum([len(axis) for axis in values[:-1]]))
    fields = [*zip(angles, indexes), str(label.s).encode(), str(label.t).encode(),
              p00, p01, p01, p00, entropy, mutual, degree, flags]
    handle.writelines(_text.lines(fields))
