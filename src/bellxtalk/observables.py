"""Single-qubit observables with spectrum {1, -1}, parameterized by Bloch angles.

The matrix attached to polar angle mu and azimuthal angle eta is

    [[cos(mu),            exp(-i*eta)*sin(mu)],
     [exp(i*eta)*sin(mu), -cos(mu)           ]]

which identifies the family with the unit sphere of traceless Hermitian 2x2
operators through (x, y, z) = (sin(mu)cos(eta), sin(mu)sin(eta), cos(mu)).
matrices() builds a (2, 2, n) stack of them from angle arrays; matrix() is its
one-row call, so the matrix is written once.

The matrix constants SIGMA1, SIGMA2, SIGMA3, HADAMARD and IDENTITY2 are
built on first access, through the module __getattr__, and kept, so
importing the module loads no numpy (see _np).
"""

from __future__ import annotations

import math
import operator
from enum import Enum

from . import _np as np

TWO_PI = 2.0 * math.pi

DEFAULT_PLANE_TOL = 1e-9

#: how each matrix constant is built
_CONSTANTS = {
    "SIGMA1": lambda: np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128),
    "SIGMA2": lambda: np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128),
    "SIGMA3": lambda: np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128),
    "HADAMARD": lambda: np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / math.sqrt(2.0),
    "IDENTITY2": lambda: np.eye(2, dtype=np.complex128),
}


def __getattr__(name: str):
    """Build a matrix constant on its first access and keep it in the module's globals."""
    build = _CONSTANTS.get(name)
    if build is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = build()
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


class Record:
    """Base of the frozen records, in place of @dataclass(frozen=True): importing dataclasses costs ~15 ms.

    Each annotated class attribute is a field. A subclass gets an __init__ that takes the fields in
    order, writes each into the instance's __dict__ and then calls its __post_init__, if it has one;
    a __post_init__ stores what it checked or converted into __dict__ too. Writing the dict skips
    __setattr__, which refuses every assignment, and costs less than object.__setattr__. Records
    compare and hash by their field values, only with records of their own type, and pickle through
    __init__.
    """

    def __init_subclass__(cls) -> None:
        fields = cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        post_init = "\n    self.__post_init__()" if hasattr(cls, "__post_init__") else ""
        namespace = {}
        # __values is a name no field can have: a class body mangles a private name such as __values
        exec(f"def __init__(self, {', '.join(fields)}):\n    __values = self.__dict__"
             + "".join(f"\n    __values[{name!r}] = {name}" for name in fields) + post_init
             + f"\ndef _values(self):\n    return ({''.join(f'self.{name}, ' for name in fields)})", namespace)
        namespace["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__, cls._values = namespace["__init__"], namespace["_values"]

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def normalize_azimuth(eta: float) -> float:
    """Reduce an azimuthal angle into [0, 2*pi); the result is never -0.0."""
    r = math.fmod(eta, TWO_PI) + 0.0  # fmod of -0.0 or a multiple of -2*pi is -0.0, and -0.0 + 0.0 is 0.0
    if r < 0.0:
        r += TWO_PI
    if r >= TWO_PI:  # fmod rounding can land exactly on 2*pi
        r = 0.0
    return r


class Observable(Record):
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
        self.__dict__["mu"] = mu
        self.__dict__["eta"] = normalize_azimuth(eta)


class BlochDirection(Record):
    x: float
    y: float
    z: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


class PlaneClass(Record):
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
    return matrices(np.array([obs.mu]), np.array([obs.eta]))[:, :, 0]


def eigenvalue(k: int) -> float:
    """Measurement outcome for eigenvector index k: +1 for k=0, -1 for k=1."""
    return 1.0 - 2.0 * bit_value(k, "eigenvector index")


def eigenvector(obs: Observable, k: int) -> np.ndarray:
    """Unit eigenvector for eigenvalue(k).

    k=0: (exp(-i*eta)*cos(mu/2), sin(mu/2));
    k=1: (-exp(-i*eta)*sin(mu/2), cos(mu/2)).
    """
    k = bit_value(k, "eigenvector index")
    half = 0.5 * obs.mu
    tr = (math.cos(half), math.sin(half))
    phase = complex(math.cos(obs.eta), -math.sin(obs.eta))
    sign = 1.0 if k == 0 else -1.0
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
