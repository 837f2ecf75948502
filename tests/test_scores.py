import numpy as np
import pytest

from chargecent import Graph, NumericalError, ScoreVector, align_scores


def test_csv_round_trip(tmp_path):
    sv = ScoreVector(np.array([1.5, 0.25, 3.0]), ["a", "b,c", "d"], {"measure": "x"})
    path = tmp_path / "s.csv"
    sv.write_csv(path)
    back = ScoreVector.read_csv(path)
    assert back.labels == sv.labels
    assert np.array_equal(back.values, sv.values)
    # Blank lines before the header are skipped; before, the header read as a score.
    path.write_text("\n" + path.read_text())
    assert ScoreVector.read_csv(path).labels == sv.labels
    # Spaces around a label are stripped, as the csv edge-list parser strips its fields;
    # before, "a , 1.5" read the label "a ".
    path.write_text("node_label,score\n a , 1.5\nb,c\t,0.25\nd  ,  3.0\n")
    back = ScoreVector.read_csv(path)
    assert back.labels == sv.labels
    assert np.array_equal(back.values, sv.values)


def test_align_by_label():
    a = ScoreVector(np.array([1.0, 2.0]), ["x", "y"])
    b = ScoreVector(np.array([20.0, 10.0]), ["y", "x"])
    y, z = align_scores(a, b)
    assert z.tolist() == [10.0, 20.0]
    with pytest.raises(ValueError):
        align_scores(a, ScoreVector(np.array([1.0]), ["x"]))


def test_validation():
    with pytest.raises(ValueError):
        ScoreVector(np.array([np.inf]), ["a"])
    with pytest.raises(ValueError):
        ScoreVector(np.array([1.0, 2.0]), ["a"])


def test_non_finite_scores_of_a_computation_are_a_numerical_failure():
    # A measure's output goes through ``for_graph``: NaN or inf there is a
    # numerical failure (exit 2), while a score file with one stays bad input.
    g = Graph(3, [(0, 1)], directed=False)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(NumericalError, match="non-finite"):
            ScoreVector.for_graph(g, np.array([1.0, bad, 2.0]), {"measure": "x"})
        with pytest.raises(ValueError, match="finite"):
            ScoreVector(np.array([1.0, bad, 2.0]), g.labels)
    assert ScoreVector.for_graph(g, np.array([1.0, 0.0, 2.0]), {}).meta == {}
