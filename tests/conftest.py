import pytest

from pose3dtrack.geometry import Box3D


@pytest.fixture
def unit_box():
    """Factory for a unit-ish box centered at the given point."""

    def make(x, y, z, half=0.4):
        return Box3D(x - half, x + half, y - half, y + half, z - half, z + half)

    return make
