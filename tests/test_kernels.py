"""The kernel module names its implementation for `branchmono.kernel_backend`."""

from branchmono._kernels import BACKEND


def test_backend_is_exposed():
    assert BACKEND == "pure"
