import struct

import numpy as np
import numpy.testing as npt
import pytest

from dyninv import io as dio
from dyninv.errors import ParameterError


def test_matrix_bin_roundtrip(tmp_path, rng):
    M = rng.standard_normal((7, 3))
    path = tmp_path / "m.bin"
    dio.write_matrix_bin(path, M)
    npt.assert_array_equal(dio.read_matrix_bin(path), M)


def test_binary_header_layout(tmp_path):
    M = np.array([[1.0, 3.0], [2.0, 4.0]])
    path = tmp_path / "m.bin"
    dio.write_matrix_bin(path, M)
    raw = path.read_bytes()
    assert raw[:7] == b"DYNINV1"
    rows, cols = struct.unpack("<QQ", raw[7:23])
    assert (rows, cols) == (2, 2)
    # payload is column-major float64
    payload = np.frombuffer(raw[23:], dtype="<f8")
    npt.assert_array_equal(payload, [1.0, 2.0, 3.0, 4.0])


def test_vector_bin_roundtrip(tmp_path, rng):
    v = rng.standard_normal(11)
    path = tmp_path / "v.bin"
    dio.write_vector_bin(path, v)
    npt.assert_array_equal(dio.read_vector_bin(path), v)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTMINE" + b"\x00" * 16)
    with pytest.raises(ParameterError):
        dio.read_matrix_bin(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "trunc.bin"
    dio.write_matrix_bin(path, np.ones((4, 4)))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ParameterError):
        dio.read_matrix_bin(path)
