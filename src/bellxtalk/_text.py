"""``"%.17g" %`` texts of whole float columns as NUL-padded byte matrices.

``floats(values)`` gives each value's text as one ASCII row of a ``uint8``
matrix, NUL-padded on the right; ``lines(fields)`` joins such matrices, rows
gathered from them by index and constant fields into CSV rows, one slice of
rows at a time, so its memory is one slice whatever the row count.

Fast path, for ``1e-4 <= x < 1e17``, where ``%.17g`` is fixed notation with
decimal exponent ``k`` in ``[-4, 16]``. Let ``p = 16 - k``. ``ldexp(x, p)``
times ``5**p`` (exact for ``p <= 22``) is exactly ``hi + lo`` by Dekker's
two-product, and ``hi >= 2**53`` is an even integer, so rounding ``lo``
half-even rounds ``x * 10**p`` the way ``%`` does: the 17 digits are
``D = hi + rint(lo)``. ``k`` starts at or below its true value and moves up
while ``D >= 10**17``. Each ``k`` has one column permutation of the digits,
``'.'`` and ``'0'``, and trailing fractional zeros, with a bare ``'.'``, are
cut by length. Every other value (zeros, negatives, subnormals, large or
non-finite values) goes through ``"%.17g" %``.
"""

from __future__ import annotations

import functools

from . import _np as np

#: widest fast-path text: "0.000" and 17 digits
_WIDTH = 22
#: CSV rows laid out, compressed and decoded at a time
_SLICE_ROWS = 512
#: a row of digit cells is five words: '.', '0', NUL and digit 0, then digits 1-16 four to a word
_DOT, _ZERO, _NUL, _FIRST = 0, 1, 2, 3


@functools.cache
def _tables():
    """5**p in high and low halves, 4-digit ASCII words, lead words, permutations, length masks."""
    pow5 = 5.0 ** np.arange(23)  # exact up to 5**22
    pow5_high = _split(pow5)[0]
    quads = np.arange(10000, dtype=np.uint16)[:, None] // 10 ** np.arange(3, -1, -1, dtype=np.uint16) % 10
    words = (quads + ord("0")).astype(np.uint8).view(np.uint32).ravel()
    leads = np.array([[ord("."), ord("0"), 0, ord("0") + d] for d in range(10)], np.uint8)
    perms = np.full((21, _WIDTH), _NUL, dtype=np.intp)  # row k + 4 for k in -4..16
    digits = [_FIRST + j for j in range(17)]
    for k in range(-4, 17):
        if k < 0:
            cells = [_ZERO, _DOT, *[_ZERO] * (-k - 1), *digits]
        else:
            cells = [*digits[:k + 1], _DOT, *digits[k + 1:]]
        perms[k + 4, :len(cells)] = cells
    keep = np.where(np.arange(_WIDTH) < np.arange(_WIDTH + 1)[:, None], 0xFF, 0).astype(np.uint8)
    return pow5_high, pow5 - pow5_high, words, leads.view(np.uint32).ravel(), perms, keep


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of each double into two halves of at most 26 significant bits."""
    c = 134217729.0 * a  # 2**27 + 1
    high = c - (c - a)
    return high, a - high


def _scaled(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """x * 10**(16 - k) rounded half-even to int64, for 0 <= 16 - k <= 22."""
    p = 16 - k
    pow5_high, pow5_low = _tables()[:2]
    b_high, b_low = pow5_high[p], pow5_low[p]
    a = np.ldexp(x, p)
    a_high, a_low = _split(a)
    hi = a * (b_high + b_low)
    lo = a_high * b_high - hi + a_high * b_low + a_low * b_high + a_low * b_low
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _fixed(x: np.ndarray) -> np.ndarray:
    """The %.17g texts of values 1e-4 <= x < 1e17 as a (len(x), _WIDTH) matrix."""
    _, _, words, leads, perms, keep = _tables()
    # log10 is off by far less than 1e-9, so k starts at or one below floor(log10(x))
    k = np.floor(np.log10(x) - 1e-9).astype(np.int64)
    d = _scaled(x, k)
    for _ in range(2):  # once for the estimate, once more for a rounding carry
        up = np.flatnonzero(d >= 10**17)
        if not len(up):
            break
        k[up] += 1
        d[up] = _scaled(x[up], k[up])
    first, rest = np.divmod(d, 10**16)
    high, low = (half.astype(np.uint32) for half in np.divmod(rest, 10**8))
    cells = np.empty((len(x), 5), dtype=np.uint32)
    cells[:, 0] = leads[first]
    for column, (quad_high, quad_low) in ((1, np.divmod(high, 10**4)), (3, np.divmod(low, 10**4))):
        cells[:, column], cells[:, column + 1] = words[quad_high], words[quad_low]
    cells = cells.view(np.uint8)
    last = 16 - np.argmax(cells[:, _FIRST:][:, ::-1] != ord("0"), axis=1)  # digit 0 is never '0'
    # "0." and -k - 1 zeros before the digits when k < 0; no '.' when k >= 0 leaves no fraction
    length = np.where(k < 0, last + 2 - k, np.where(last > k, last + 2, k + 1))
    text = np.empty((len(x), _WIDTH), dtype=np.uint8)
    for group in np.flatnonzero(np.bincount(k + 4, minlength=21)):
        rows = np.flatnonzero(k == group - 4)
        text[rows] = np.take(cells, rows, axis=0)[:, perms[group]]
    text &= np.take(keep, length, axis=0)
    return text


def floats(values: np.ndarray) -> np.ndarray:
    """Each value's ``"%.17g" %`` text as an ASCII row of a NUL-padded uint8 matrix."""
    values = np.asarray(values, dtype=np.float64)
    fast = (values >= 1e-4) & (values < 1e17)
    # the other rows hold 1.0 until their own texts replace it, so that no value
    # outside the fast range, such as 0, inf or nan, reaches log10 or the int casts
    text = _fixed(np.where(fast, values, 1.0))
    slow = np.flatnonzero(~fast)
    if not len(slow):
        return text
    others = ["%.17g" % value for value in values[slow].tolist()]
    width = max(_WIDTH, *map(len, others))
    if width > _WIDTH:
        text = np.concatenate([text, np.zeros((len(values), width - _WIDTH), np.uint8)], axis=1)
    padded = b"".join(other.encode("ascii").ljust(width, b"\0") for other in others)
    text[slow] = np.frombuffer(padded, dtype=np.uint8).reshape(len(others), width)
    return text


def lines(fields):
    """Yield the CSV text of rows whose fields are text matrices, gathered texts or shared bytes.

    A field is a text matrix with one row per CSV row, a ``(texts, index)``
    pair whose row i is ``texts[index[i]]``, or bytes that every row shares;
    a one-row matrix is one row, not a shared field. The fields are joined
    by commas and each row ends in a newline. The rows are laid out
    _SLICE_ROWS at a time in one reused uint8 buffer, whose shared bytes are
    written once; each slice gathers its rows of every text field, and is
    compressed to its cells that are not NUL and yielded as one str.
    """
    parts = [part for field in fields for part in (field, b",")]
    parts[-1] = b"\n"
    shared, gathered = [], []
    column = 0
    for part in parts:
        if isinstance(part, bytes):
            shared.append((slice(column, column + len(part)), np.frombuffer(part, np.uint8)))
            column += len(part)
        else:
            matrix, index = (part, None) if isinstance(part, np.ndarray) else part
            gathered.append((slice(column, column + matrix.shape[1]), matrix, index))
            column += matrix.shape[1]
    _, matrix, index = gathered[0]
    rows = len(matrix) if index is None else len(index)
    buf = np.empty((min(rows, _SLICE_ROWS), column), dtype=np.uint8)
    for cells, text in shared:
        buf[:, cells] = text
    for start in range(0, rows, _SLICE_ROWS):
        stop = min(start + _SLICE_ROWS, rows)
        block = buf[:stop - start]
        for cells, matrix, index in gathered:
            block[:, cells] = matrix[start:stop] if index is None else matrix[index[start:stop]]
        yield block[block != 0].tobytes().decode("ascii")
