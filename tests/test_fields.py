import numpy as np
import pytest

from refstokes.fields import GridField

BOX = np.array([[-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]])


@pytest.mark.parametrize("n", [1, 3, 8, 12, 24])
def test_any_positive_resolution_accepted(n):
    f = GridField.zeros(BOX, n)
    assert f.n == n and f.values.shape == (n, n, n)
    assert np.allclose(f.cell_size, 2.0 / n)


@pytest.mark.parametrize("n", [0, -1, -8])
def test_resolution_below_one_refused(n):
    with pytest.raises(ValueError, match=f"grid resolution must be at least 1, got {n}"):
        GridField(box=BOX, n=n, values=np.zeros((1, 1, 1)))
    with pytest.raises(ValueError, match=f"grid resolution must be at least 1, got {n}"):
        GridField.zeros(BOX, n, (5, 5))


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
