"""Named parameters as views of one float64 vector.

``ParamSet.flat`` holds every parameter's real coordinates in name order.  A
complex parameter takes two coordinates per entry, interleaved (re, im), and
its view reinterprets them as complex128, so the named arrays, the gradients
and the optimizer's moments all share one layout and round trips are
bit-exact.  This is the one module that reinterprets float64 as complex128.
"""

from __future__ import annotations

import numpy as np


class ParamSet:
    """Ordered mapping from parameter names to float64/complex128 views of ``flat``."""

    def __init__(self, arrays: dict[str, np.ndarray]):
        """One new buffer holding ``arrays``' values, each as float64, or complex128 if complex."""
        self._layout: dict[str, tuple[slice, tuple[int, ...], type]] = {}
        off = 0
        for name, a in arrays.items():
            dtype = np.complex128 if np.iscomplexobj(a) else np.float64
            n = np.size(a) * (2 if dtype is np.complex128 else 1)
            self._layout[name] = (slice(off, off + n), np.shape(a), dtype)
            off += n
        self.flat = np.empty(off)
        for name, a in arrays.items():
            self[name][...] = a

    def names(self) -> list[str]:
        return list(self._layout)

    def __getitem__(self, name: str) -> np.ndarray:
        sl, shape, dtype = self._layout[name]
        return self.flat[sl].view(dtype).reshape(shape)

    def __setitem__(self, name: str, array: np.ndarray) -> None:
        """Write ``array``, which must have the parameter's shape and dtype, into its view."""
        view, a = self[name], np.asarray(array)
        if a.shape != view.shape or a.dtype != view.dtype:
            raise ValueError(
                f"parameter {name!r} expects {view.shape} {view.dtype}, got {a.shape} {a.dtype}"
            )
        view[...] = a

    def __iter__(self):
        return ((name, self[name]) for name in self._layout)

    @property
    def size(self) -> int:
        """Total number of real coordinates in ``flat``."""
        return self.flat.size

    def flat_slices(self) -> dict[str, slice]:
        return {name: sl for name, (sl, _, _) in self._layout.items()}

    def from_flat(self, flat: np.ndarray) -> "ParamSet":
        """A ParamSet of this one's layout over ``flat`` itself, not a copy of it."""
        flat = np.ascontiguousarray(flat, dtype=np.float64)
        if flat.shape != self.flat.shape:
            raise ValueError(f"flat vector has {flat.shape}, expected {self.flat.shape}")
        out = object.__new__(ParamSet)
        out._layout, out.flat = self._layout, flat
        return out

    def copy(self) -> "ParamSet":
        return self.from_flat(self.flat.copy())
