"""Named parameter sets with a stable flat-vector view.

Complex parameters are stored as complex128 arrays; the flat view exposes
them as interleaved (re, im) float64 pairs via a dtype reinterpretation, so
flatten -> unflatten round trips are bit-exact.
"""

from __future__ import annotations

import numpy as np


class ParamSet:
    """Ordered mapping from parameter names to float64/complex128 arrays."""

    def __init__(self, arrays: dict[str, np.ndarray] | None = None):
        self._arrays: dict[str, np.ndarray] = {}
        if arrays:
            for name, a in arrays.items():
                self.add(name, a)

    def add(self, name: str, array: np.ndarray) -> None:
        if name in self._arrays:
            raise ValueError(f"duplicate parameter {name!r}")
        a = np.asarray(array)
        if np.iscomplexobj(a):
            a = a.astype(np.complex128)
        else:
            a = a.astype(np.float64)
        self._arrays[name] = a

    def names(self) -> list[str]:
        return list(self._arrays)

    def __getitem__(self, name: str) -> np.ndarray:
        return self._arrays[name]

    def __setitem__(self, name: str, array: np.ndarray) -> None:
        old = self._arrays[name]
        a = np.asarray(array)
        if a.shape != old.shape or a.dtype != old.dtype:
            raise ValueError(
                f"parameter {name!r} expects {old.shape} {old.dtype}, got {a.shape} {a.dtype}"
            )
        self._arrays[name] = a

    def __iter__(self):
        return iter(self._arrays.items())

    @staticmethod
    def _n_reals(a: np.ndarray) -> int:
        return a.size * (2 if np.iscomplexobj(a) else 1)

    @property
    def size(self) -> int:
        """Total number of real coordinates in the flat view."""
        return sum(self._n_reals(a) for a in self._arrays.values())

    def flat_slices(self) -> dict[str, slice]:
        out = {}
        off = 0
        for name, a in self._arrays.items():
            n = self._n_reals(a)
            out[name] = slice(off, off + n)
            off += n
        return out

    def to_flat(self) -> np.ndarray:
        parts = []
        for a in self._arrays.values():
            if np.iscomplexobj(a):
                parts.append(np.ascontiguousarray(a).view(np.float64).ravel())
            else:
                parts.append(a.ravel())
        if not parts:
            return np.zeros(0)
        return np.concatenate(parts)

    def from_flat(self, flat: np.ndarray) -> "ParamSet":
        """New ParamSet with this one's structure and ``flat``'s values."""
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (self.size,):
            raise ValueError(f"flat vector has {flat.shape}, expected ({self.size},)")
        out = ParamSet()
        off = 0
        for name, a in self._arrays.items():
            n = self._n_reals(a)
            chunk = np.ascontiguousarray(flat[off : off + n])
            if np.iscomplexobj(a):
                out.add(name, chunk.view(np.complex128).reshape(a.shape))
            else:
                out.add(name, chunk.reshape(a.shape))
            off += n
        return out

    def copy(self) -> "ParamSet":
        return ParamSet({name: a.copy() for name, a in self._arrays.items()})
