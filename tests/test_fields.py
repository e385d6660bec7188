import numpy as np
import pytest

from refstokes.fields import GridField

BOX = np.array([[-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]])


def test_power_of_two_enforced():
    GridField.zeros(BOX, 8)
    with pytest.raises(ValueError):
        GridField.zeros(BOX, 12)
    with pytest.raises(ValueError):
        GridField.zeros(BOX, 0)


@pytest.mark.parametrize("box, values, message", [
    ([[0.0, 0.0, 0.0], [1.0, -1.0, 1.0]], np.zeros((2, 2, 2)), "box must be"),
    ([[0.0, 0.0, 0.0], [1.0, np.nan, 1.0]], np.zeros((2, 2, 2)), "box must be"),
    (BOX, np.zeros((2, 2, 4)), r"values must start with shape \(2,2,2\)"),
    (BOX, np.full((2, 2, 2, 3), np.inf), "non-finite field values"),
], ids=["inverted_box", "nan_box", "values_shape", "infinite_values"])
def test_grid_field_refuses_bad_data(box, values, message):
    with pytest.raises(ValueError, match=message):
        GridField(box=np.asarray(box), n=2, values=values)


def test_geometry_helpers():
    f = GridField.zeros(BOX, 4)
    assert np.allclose(f.cell_size, 0.5)
    assert np.isclose(f.cell_volume, 0.125)
    ax = f.axes()[0]
    assert np.allclose(ax, [-0.75, -0.25, 0.25, 0.75])
    centers = f.cell_centers()
    assert centers.shape == (4, 4, 4, 3)
    assert np.allclose(centers[0, 0, 0], [-0.75, -0.75, -0.75])


def test_same_grid():
    f = GridField.zeros(BOX, 4)
    g = GridField.zeros(BOX, 4, (3,))
    h = GridField.zeros(BOX, 8)
    assert f.same_grid(g)
    assert not f.same_grid(h)
