"""Pixel bounds on frames just over 2**53 pixels wide, where the clamp edge
``width - 1.0`` rounds up past the last column."""

from pose3dtrack.ingest import Box2D, Mask2D, _box_overlaps_mask

WIDTH = 2**53 + 3  # float(WIDTH) - 1.0 is 2**53 + 4


def test_pixel_bounds_stop_at_the_last_column_and_row():
    assert Box2D(0.0, 0.0, 1e300, 0.4).pixel_bounds(WIDTH, 2) == (0, 2**53 + 2, 0, 0)
    assert Box2D(0.0, 0.0, 0.4, 1e300).pixel_bounds(2, WIDTH) == (0, 0, 0, 2**53 + 2)


def test_a_box_on_row_0_misses_a_mask_pixel_on_row_1():
    mask = Mask2D(WIDTH, 2, ((WIDTH, 1),))  # the first pixel of row 1
    assert not _box_overlaps_mask(Box2D(0.0, 0.0, 1e300, 0.4), mask)
    assert _box_overlaps_mask(Box2D(0.0, 0.0, 1e300, 1.0), mask)


def test_bounds_on_narrower_frames_are_the_clamped_box_rounded_inward():
    for width in (2, 640, 2**31, 2**53 - 1):
        assert Box2D(-5.0, -5.0, 1e300, 1e300).pixel_bounds(width, 3) == (0, width - 1, 0, 2)
        assert Box2D(0.5, 0.25, 1.5, 2.75).pixel_bounds(width + 2, 4) == (1, 1, 1, 2)
