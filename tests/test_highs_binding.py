"""Guard on scipy's private HiGHS binding, which solvers builds every LP
on: its own basis pursuit and pksp's sign-pattern LPs.

scipy.optimize._highspy._core is not public API, so a scipy release may
move or rename it.  When the module itself is gone, importing sparsemotion
fails with a ModuleNotFoundError naming it.  These tests name each piece
solvers uses from it, so a rename fails here with the missing name instead
of deep inside a solve, and they pin the array overload of passModel that
hands each LP over.
"""

import numpy as np

from scipy.optimize._highspy import _core as highs

from sparsemotion import solvers

NAMES = ("_Highs", "MatrixFormat", "ObjSense", "HighsStatus", "HighsModelStatus",
         "kHighsIInf")
MEMBERS = {
    "HighsModelStatus": ("kOptimal", "kIterationLimit", "kInfeasible"),
    "HighsStatus": ("kOk", "kError"),
    "MatrixFormat": ("kRowwise",),
    "ObjSense": ("kMinimize",),
}
HIGHS_METHODS = ("setOptionValue", "passModel", "run", "getModelStatus",
                 "getInfo", "getSolution", "modelStatusToString")


def test_names_solvers_uses_exist():
    missing = [n for n in NAMES if not hasattr(highs, n)]
    missing += [f"{cls}.{m}" for cls, ms in MEMBERS.items() if hasattr(highs, cls)
                for m in ms if not hasattr(getattr(highs, cls), m)]
    if hasattr(highs, "_Highs"):
        missing += [f"_Highs.{m}" for m in HIGHS_METHODS if not hasattr(highs._Highs, m)]
    assert not missing, f"scipy.optimize._highspy._core no longer has {', '.join(missing)}"


def test_options_solvers_sets_are_accepted():
    """setOptionValue reports an unknown option by its return status only."""
    h = highs._Highs()
    options = {**solvers._HIGHS_OPTIONS, "simplex_iteration_limit": 10}
    rejected = [name for name, value in options.items()
                if h.setOptionValue(name, value) != highs.HighsStatus.kOk]
    assert not rejected, f"HiGHS rejects the options {rejected}"


def pass_rowwise(h, integrality):
    """min x0 + 2 x1 + 3 x2 s.t. x0 + x1 + x2 = 1, x0 - x1 >= 0, x >= 0,
    handed to passModel's array overload as solvers does: 2 rows of 3
    stored row-wise, start of length 2, int32 indices."""
    inf = np.inf
    return h.passModel(
        3, 2, 6, highs.MatrixFormat.kRowwise, highs.ObjSense.kMinimize, 0.0,
        np.array([1.0, 2.0, 3.0]), np.zeros(3), np.full(3, inf),
        np.array([1.0, 0.0]), np.array([1.0, inf]),
        np.array([0, 3], dtype=np.int32), np.array([0, 1, 2, 0, 1, 2], dtype=np.int32),
        np.array([1.0, 1.0, 1.0, 1.0, -1.0, 0.0]), integrality)


def test_array_overload_solves_a_rowwise_lp():
    h = highs._Highs()
    h.setOptionValue("output_flag", False)
    assert pass_rowwise(h, np.zeros(3, dtype=np.int32)) != highs.HighsStatus.kError
    h.run()
    assert h.getModelStatus() == highs.HighsModelStatus.kOptimal
    np.testing.assert_allclose(h.getSolution().col_value, [1.0, 0.0, 0.0], atol=1e-12)


def test_array_overload_rejects_empty_integrality():
    """The trap solvers avoids by passing n zeros: with an empty integrality
    array passModel returns kError and leaves an empty model."""
    h = highs._Highs()
    h.setOptionValue("output_flag", False)
    assert pass_rowwise(h, np.zeros(0, dtype=np.int32)) == highs.HighsStatus.kError
