"""numpy's bundled OpenBLAS build string, which names the CPU kernel it runs.

Run as a script, it prints that string, so a test can read which kernel a
process started with another OPENBLAS_CORETYPE runs.
"""

import ctypes
import glob
import os

import numpy as np


def openblas_config():
    """The build string, such as 'OpenBLAS 0.3.31 ... DYNAMIC_ARCH ... SkylakeX ...'; None where unreadable."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas64_*.so"))
    get_config = getattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_config64_", None) if libs else None
    if get_config is None:
        return None
    get_config.restype = ctypes.c_char_p
    return get_config().decode()


if __name__ == "__main__":
    print(openblas_config())
