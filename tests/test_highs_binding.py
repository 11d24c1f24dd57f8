"""Guard on scipy's private HiGHS binding, which solvers builds its LP on.

scipy.optimize._highspy._core is not public API, so a scipy release may
move or rename it.  When the module itself is gone, importing sparsemotion
fails with a ModuleNotFoundError naming it.  These tests name each piece
solvers uses from it, so a rename fails here with the missing name instead
of deep inside a solve.
"""

from scipy.optimize._highspy import _core as highs

from sparsemotion import solvers

NAMES = ("HighsLp", "_Highs", "MatrixFormat", "HighsModelStatus", "kHighsInf")
MEMBERS = {
    "HighsModelStatus": ("kOptimal", "kIterationLimit", "kInfeasible"),
    "MatrixFormat": ("kRowwise",),
}
LP_FIELDS = ("num_col_", "num_row_", "col_cost_", "col_lower_", "col_upper_",
             "row_lower_", "row_upper_", "a_matrix_")
MATRIX_FIELDS = ("format_", "num_col_", "num_row_", "start_", "index_", "value_")
HIGHS_METHODS = ("setOptionValue", "passModel", "run", "getModelStatus",
                 "getInfo", "getSolution", "modelStatusToString")


def test_names_solvers_uses_exist():
    missing = [n for n in NAMES if not hasattr(highs, n)]
    missing += [f"{cls}.{m}" for cls, ms in MEMBERS.items() if hasattr(highs, cls)
                for m in ms if not hasattr(getattr(highs, cls), m)]
    if hasattr(highs, "HighsLp"):
        lp = highs.HighsLp()
        missing += [f"HighsLp.{f}" for f in LP_FIELDS if not hasattr(lp, f)]
        missing += [f"HighsLp.a_matrix_.{f}" for f in MATRIX_FIELDS
                    if hasattr(lp, "a_matrix_") and not hasattr(lp.a_matrix_, f)]
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
