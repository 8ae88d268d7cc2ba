"""Single-qubit observables with spectrum {1, -1}, parameterized by Bloch angles.

The matrix attached to polar angle mu and azimuthal angle eta is

    [[cos(mu),            exp(-i*eta)*sin(mu)],
     [exp(i*eta)*sin(mu), -cos(mu)           ]]

which identifies the family with the unit sphere of traceless Hermitian 2x2
operators through (x, y, z) = (sin(mu)cos(eta), sin(mu)sin(eta), cos(mu)).
matrices() builds a (2, 2, n) stack of them from angle arrays; matrix() is its
one-row call, so the matrix is written once.

Importing the module does not load numpy: the functions that build arrays
import it, and the matrix constants SIGMA1, SIGMA2, SIGMA3, HADAMARD and
IDENTITY2 are built on first access, through the module __getattr__, and kept.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum

TWO_PI = 2.0 * math.pi

DEFAULT_PLANE_TOL = 1e-9

#: how each matrix constant is built from numpy
_CONSTANTS = {
    "SIGMA1": lambda np: np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128),
    "SIGMA2": lambda np: np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128),
    "SIGMA3": lambda np: np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128),
    "HADAMARD": lambda np: np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / math.sqrt(2.0),
    "IDENTITY2": lambda np: np.eye(2, dtype=np.complex128),
}


def __getattr__(name: str):
    """Build a matrix constant on its first access and keep it in the module's globals."""
    build = _CONSTANTS.get(name)
    if build is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import numpy as np

    value = globals()[name] = build(np)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_CONSTANTS})


def angle_value(value, name: str) -> float:
    """value as a float, if it is a number: float() would also parse a str, bytes or other buffer."""
    kind = type(value)
    if not (hasattr(kind, "__float__") or hasattr(kind, "__index__")):
        raise TypeError(f"{name} must be a number, not {kind.__name__}")
    return float(value)


def bit_value(value, name: str) -> int:
    """value as a plain int, if it is an integer 0 or 1: a float such as 1.0 is refused, not truncated."""
    try:
        bit = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer 0 or 1, not {type(value).__name__}") from None
    if bit not in (0, 1):
        raise ValueError(f"{name} must be 0 or 1, got {bit}")
    return int(bit)


def require_tolerance(tol, name: str = "tolerance") -> None:
    """Raise ValueError unless tol is positive and finite; NaN is rejected as well."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"{name} must be positive and finite")


class NamedGate(Enum):
    SIGMA1 = "sigma1"
    SIGMA2 = "sigma2"
    SIGMA3 = "sigma3"
    HADAMARD = "hadamard"


class Plane(Enum):
    """Coordinate planes of the Bloch sphere; GENERIC when none matches."""

    X_ZERO = "x=0"
    Y_ZERO = "y=0"
    Z_ZERO = "z=0"
    GENERIC = "generic"


def normalize_azimuth(eta: float) -> float:
    """Reduce an azimuthal angle into [0, 2*pi)."""
    r = math.fmod(eta, TWO_PI)
    if r < 0.0:
        r += TWO_PI
    if r >= TWO_PI:  # fmod rounding can land exactly on 2*pi
        r = 0.0
    return r


@dataclass(frozen=True)
class Observable:
    """A point (mu, eta) on the Bloch sphere naming a spectrum-{1,-1} operator.

    mu is the polar angle and must lie in [0, pi]; values outside are rejected
    rather than reflected, since reflecting would silently shift eta by pi.
    eta is the azimuthal angle, normalized modulo 2*pi at construction. At the
    poles (mu = 0 or pi) eta only survives as a global eigenvector phase.
    """

    mu: float
    eta: float

    def __post_init__(self) -> None:
        mu = angle_value(self.mu, "mu")
        eta = angle_value(self.eta, "eta")
        if not (math.isfinite(mu) and math.isfinite(eta)):
            raise ValueError("observable angles must be finite")
        if not 0.0 <= mu <= math.pi:
            raise ValueError(f"polar angle mu must lie in [0, pi], got {mu}")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "eta", normalize_azimuth(eta))


@dataclass(frozen=True)
class BlochDirection:
    x: float
    y: float
    z: float

    def as_array(self) -> np.ndarray:
        import numpy as np

        return np.array([self.x, self.y, self.z])


@dataclass(frozen=True)
class PlaneClass:
    """Coordinate planes an observable direction lies in, at a tolerance.

    planes holds every matching plane (a direction along a coordinate axis
    lies in two planes at once) and is (GENERIC,) when no coordinate vanishes.
    """

    planes: tuple[Plane, ...]
    tolerance: float

    def __contains__(self, plane: Plane) -> bool:
        return plane in self.planes

    @property
    def is_generic(self) -> bool:
        return self.planes == (Plane.GENERIC,)


def matrices(polar, azimuth) -> np.ndarray:
    """[[cos, e^-i*azimuth sin], [e^i*azimuth sin, -cos]] of each row; shape (2, 2, n).

    The row index is last, the struct-of-arrays layout of the batch oracles.
    Inputs are 1-d float arrays of one length and are not validated.
    """
    import numpy as np

    mats = np.empty((2, 2, polar.shape[0]), dtype=np.complex128)
    c, sn = np.cos(polar), np.sin(polar)
    phase = np.exp(-1j * azimuth)
    mats[0, 0] = c
    mats[0, 1] = phase * sn
    mats[1, 0] = np.conj(phase) * sn
    mats[1, 1] = -c
    return mats


def matrix(obs: Observable) -> np.ndarray:
    """2x2 Hermitian matrix of the observable; trace 0, squares to identity."""
    import numpy as np

    return matrices(np.array([obs.mu]), np.array([obs.eta]))[:, :, 0]


def eigenvalue(k: int) -> float:
    """Measurement outcome for eigenvector index k: +1 for k=0, -1 for k=1."""
    if k not in (0, 1):
        raise ValueError("eigenvector index must be 0 or 1")
    return 1.0 if k == 0 else -1.0


def eigenvector(obs: Observable, k: int) -> np.ndarray:
    """Unit eigenvector for eigenvalue(k).

    k=0: (exp(-i*eta)*cos(mu/2), sin(mu/2));
    k=1: (-exp(-i*eta)*sin(mu/2), cos(mu/2)).
    """
    if k not in (0, 1):
        raise ValueError("eigenvector index must be 0 or 1")
    half = 0.5 * obs.mu
    tr = (math.cos(half), math.sin(half))
    phase = complex(math.cos(obs.eta), -math.sin(obs.eta))
    sign = 1.0 if k == 0 else -1.0
    import numpy as np

    return np.array([sign * phase * tr[k], tr[(k + 1) % 2]], dtype=np.complex128)


def direction(obs: Observable) -> BlochDirection:
    """Unit Bloch vector (sin(mu)cos(eta), sin(mu)sin(eta), cos(mu))."""
    s = math.sin(obs.mu)
    return BlochDirection(s * math.cos(obs.eta), s * math.sin(obs.eta), math.cos(obs.mu))


def classify_plane(obs: Observable, tol: float = DEFAULT_PLANE_TOL) -> PlaneClass:
    """Report every coordinate plane whose defining coordinate is within tol."""
    require_tolerance(tol)
    d = direction(obs)
    hits = []
    if abs(d.x) <= tol:
        hits.append(Plane.X_ZERO)
    if abs(d.y) <= tol:
        hits.append(Plane.Y_ZERO)
    if abs(d.z) <= tol:
        hits.append(Plane.Z_ZERO)
    if not hits:
        hits.append(Plane.GENERIC)
    return PlaneClass(planes=tuple(hits), tolerance=float(tol))


_GATE_ANGLES = {
    NamedGate.SIGMA1: (math.pi / 2.0, 0.0),
    NamedGate.SIGMA2: (math.pi / 2.0, math.pi / 2.0),
    NamedGate.SIGMA3: (0.0, 0.0),
    NamedGate.HADAMARD: (math.pi / 4.0, 0.0),
}


def named_gate(name: NamedGate | str) -> Observable:
    """Observable whose matrix is the named Pauli or Hadamard gate."""
    gate = NamedGate(name.lower()) if isinstance(name, str) else name
    mu, eta = _GATE_ANGLES[gate]
    return Observable(mu, eta)
