"""Rigid 3-D transforms: the data the Bronze Standard actually computes.

"Medical image registration consists in searching a transformation
(that is to say 6 parameters in the rigid case — 3 rotation angles and
3 translation parameters) between two images" (Section 4.2).

:class:`RigidTransform` is a unit quaternion plus a translation vector,
with composition, inversion, perturbation, and distance metrics.  The
bronze-standard statistic needs a **mean of rotations**, computed here
with the standard quaternion-averaging method (the eigenvector of the
accumulated outer-product matrix — Markley et al.), which is exact for
the small dispersions involved.

Quaternions are ``(x, y, z, w)`` arrays (vector part first, scalar
last) multiplied with the Hamilton product, where ``p ⊗ q`` rotates by
``q`` first, then by ``p``.  Everything is plain numpy and :mod:`math`;
no simulation concepts — these are the honest data products flowing
through the simulated services.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

__all__ = ["RigidTransform", "mean_transform", "rotation_angle_deg"]


def _normalize_quaternion(quat: np.ndarray) -> np.ndarray:
    quat = np.asarray(quat, dtype=float)
    if quat.shape != (4,):
        raise ValueError(f"quaternion must have shape (4,), got {quat.shape}")
    norm = float(np.linalg.norm(quat))
    if norm == 0:
        raise ValueError("zero quaternion is not a rotation")
    quat = quat / norm
    # Canonical sign: w >= 0 (q and -q are the same rotation).
    if quat[3] < 0:
        quat = -quat
    return quat


def _product(p: Sequence[float], q: Sequence[float]) -> List[float]:
    """Hamilton product ``p ⊗ q``: rotate by *q*, then by *p*."""
    px, py, pz, pw = p
    qx, qy, qz, qw = q
    return [
        pw * qx + qw * px + (py * qz - pz * qy),
        pw * qy + qw * py + (pz * qx - px * qz),
        pw * qz + qw * pz + (px * qy - py * qx),
        pw * qw - px * qx - py * qy - pz * qz,
    ]


def _conjugate(q: Sequence[float]) -> List[float]:
    """The inverse rotation of the unit quaternion *q*."""
    x, y, z, w = q
    return [-x, -y, -z, w]


def _matrix(q: Sequence[float]) -> np.ndarray:
    """The 3x3 rotation matrix of the unit quaternion *q*."""
    x, y, z, w = q
    x2, y2, z2, w2 = x * x, y * y, z * z, w * w
    xy, zw, xz, yw, yz, xw = x * y, z * w, x * z, y * w, y * z, x * w
    return np.array(
        [
            [x2 - y2 - z2 + w2, 2 * (xy - zw), 2 * (xz + yw)],
            [2 * (xy + zw), -x2 + y2 - z2 + w2, 2 * (yz - xw)],
            [2 * (xz - yw), 2 * (yz + xw), -x2 - y2 + z2 + w2],
        ]
    )


def _angle_deg(q: Sequence[float]) -> float:
    """The rotation angle of *q* in degrees, in ``[0, 180]``."""
    x, y, z, w = q
    return math.degrees(2.0 * math.atan2(math.hypot(x, y, z), abs(w)))


def _axis_quaternion(axis: int, angle_deg: float) -> List[float]:
    """Rotation by *angle_deg* about coordinate axis *axis* (0, 1, 2 = x, y, z)."""
    half = math.radians(angle_deg) / 2.0
    quat = [0.0, 0.0, 0.0, math.cos(half)]
    quat[axis] = math.sin(half)
    return quat


@dataclass(frozen=True)
class RigidTransform:
    """A rigid spatial transform: rotation (unit quaternion) + translation.

    The quaternion is ``(x, y, z, w)``, scalar last, and is kept
    normalized with ``w >= 0`` so equal rotations compare equal.
    """

    quaternion: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 0.0, 1.0]))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self) -> None:
        object.__setattr__(self, "quaternion", _normalize_quaternion(self.quaternion))
        translation = np.asarray(self.translation, dtype=float)
        if translation.shape != (3,):
            raise ValueError(f"translation must have shape (3,), got {translation.shape}")
        object.__setattr__(self, "translation", translation)

    # -- constructors ---------------------------------------------------
    @classmethod
    def identity(cls) -> "RigidTransform":
        """The do-nothing transform."""
        return cls()

    @classmethod
    def from_euler_deg(
        cls, angles_deg: Sequence[float], translation: Sequence[float]
    ) -> "RigidTransform":
        """From extrinsic XYZ Euler angles in degrees plus a translation (mm).

        The x rotation applies first, then y, then z about the fixed
        axes: ``q = qz ⊗ qy ⊗ qx``.
        """
        qx, qy, qz = (_axis_quaternion(axis, float(a)) for axis, a in enumerate(angles_deg))
        return cls(
            quaternion=_product(qz, _product(qy, qx)),
            translation=np.asarray(translation, float),
        )

    @classmethod
    def random(
        cls,
        rng: np.random.Generator,
        max_angle_deg: float = 10.0,
        max_translation: float = 20.0,
    ) -> "RigidTransform":
        """A random small transform (inter-acquisition patient motion)."""
        if max_angle_deg < 0 or max_translation < 0:
            raise ValueError("bounds must be >= 0")
        angles = rng.uniform(-max_angle_deg, max_angle_deg, size=3)
        translation = rng.uniform(-max_translation, max_translation, size=3)
        return cls.from_euler_deg(angles, translation)

    # -- algebra ------------------------------------------------------------
    @property
    def rotation(self) -> np.ndarray:
        """The rotation part as a 3x3 matrix."""
        return _matrix(self.quaternion.tolist())

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """``self ∘ other``: apply *other* first, then *self*."""
        return RigidTransform(
            quaternion=_product(self.quaternion.tolist(), other.quaternion.tolist()),
            translation=self.rotation @ other.translation + self.translation,
        )

    def inverse(self) -> "RigidTransform":
        """The transform undoing this one."""
        return RigidTransform(
            quaternion=_conjugate(self.quaternion.tolist()),
            translation=-(self.rotation.T @ self.translation),
        )

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform an ``(n, 3)`` (or ``(3,)``) point array."""
        return np.asarray(points, dtype=float) @ self.rotation.T + self.translation

    def perturb(
        self,
        rng: np.random.Generator,
        rotation_sigma_deg: float,
        translation_sigma: float,
    ) -> "RigidTransform":
        """Compose with small Gaussian noise — a noisy *estimate* of self.

        This is how simulated registration algorithms produce their
        answers: ground truth composed with method-specific error.
        """
        if rotation_sigma_deg < 0 or translation_sigma < 0:
            raise ValueError("sigmas must be >= 0")
        noise_angles = rng.normal(0.0, rotation_sigma_deg, size=3)
        noise_translation = rng.normal(0.0, translation_sigma, size=3)
        noise = RigidTransform.from_euler_deg(noise_angles, noise_translation)
        return noise.compose(self)

    # -- metrics -----------------------------------------------------------------
    def rotation_distance_deg(self, other: "RigidTransform") -> float:
        """Geodesic rotation distance in degrees."""
        return _angle_deg(
            _product(self.quaternion.tolist(), _conjugate(other.quaternion.tolist()))
        )

    def translation_distance(self, other: "RigidTransform") -> float:
        """Euclidean distance between the translation parts."""
        return float(np.linalg.norm(self.translation - other.translation))

    def is_close(
        self, other: "RigidTransform", angle_tol_deg: float = 1e-6, trans_tol: float = 1e-6
    ) -> bool:
        """Approximate equality within the given tolerances."""
        return (
            self.rotation_distance_deg(other) <= angle_tol_deg
            and self.translation_distance(other) <= trans_tol
        )

    def __repr__(self) -> str:
        angle = _angle_deg(self.quaternion.tolist())
        t = self.translation
        return (
            f"RigidTransform(angle={angle:.2f}deg, "
            f"t=[{t[0]:.2f}, {t[1]:.2f}, {t[2]:.2f}])"
        )


def mean_transform(transforms: Sequence[RigidTransform]) -> RigidTransform:
    """The mean rigid transform: quaternion average + arithmetic translation.

    The rotation mean maximizes ``Σ (qᵀ qᵢ)²`` — the principal
    eigenvector of ``Σ qᵢ qᵢᵀ`` (Markley's quaternion averaging), which
    coincides with the Fréchet mean for the dispersion levels of
    registration noise.  This is the "mean registration [that] should
    be more precise and is called a bronze-standard".
    """
    if not transforms:
        raise ValueError("cannot average zero transforms")
    quats = np.stack([t.quaternion for t in transforms])
    accumulator = quats.T @ quats  # 4x4 symmetric
    eigenvalues, eigenvectors = np.linalg.eigh(accumulator)
    mean_quat = eigenvectors[:, int(np.argmax(eigenvalues))]
    translation = np.mean([t.translation for t in transforms], axis=0)
    return RigidTransform(quaternion=mean_quat, translation=translation)


def rotation_angle_deg(transform: RigidTransform) -> float:
    """Magnitude of the rotation part, in degrees."""
    return _angle_deg(transform.quaternion.tolist())
