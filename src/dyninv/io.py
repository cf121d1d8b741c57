"""Dense matrix and vector serialization.

One format, little-endian binary: magic ``DYNINV1``, u64 rows, u64 cols, then
rows*cols float64 values stored column-major.  A vector is stored as an
n x 1 matrix.  Sparse forward matrices are saved by
:func:`dyninv.problems.save_instance` with ``scipy.sparse.save_npz``.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import ParameterError

MAGIC = b"DYNINV1"
_HEADER = struct.Struct("<7sQQ")


def write_matrix_bin(path, M) -> None:
    """Write a dense matrix (or vector, stored as n x 1) in binary format."""
    M = np.asarray(M, dtype="<f8")
    if M.ndim == 1:
        M = M.reshape(-1, 1)
    if M.ndim != 2:
        raise ParameterError("binary format stores 2-D matrices only")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, M.shape[0], M.shape[1]))
        fh.write(np.asfortranarray(M).tobytes(order="F"))


def read_matrix_bin(path) -> np.ndarray:
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise ParameterError(f"{path}: truncated header")
        magic, rows, cols = _HEADER.unpack(head)
        if magic != MAGIC:
            raise ParameterError(f"{path}: bad magic {magic!r}")
        data = np.frombuffer(fh.read(rows * cols * 8), dtype="<f8")
        if data.size != rows * cols:
            raise ParameterError(f"{path}: truncated payload")
    return data.reshape(rows, cols, order="F").copy()


def write_vector_bin(path, v) -> None:
    write_matrix_bin(path, np.asarray(v, dtype=float).reshape(-1, 1))


def read_vector_bin(path) -> np.ndarray:
    M = read_matrix_bin(path)
    if M.shape[1] != 1:
        raise ParameterError(f"{path}: expected a single-column vector file")
    return M[:, 0]
