"""The package's error contract (errors.py): every exception class the
package defines is an InputError, which the CLI reports as exit 1, or one of
the two resource errors it reports as exit 2, so a new error class cannot
end a command in a traceback; and the package raises no builtin exception
class, so an error a caller can fix is never a bare ValueError."""

import ast
import builtins
import dataclasses
import importlib
import inspect
import os
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import sparsemotion
from sparsemotion.camera import CameraModel, assemble_system
from sparsemotion.errors import InputError
from sparsemotion.experiments import (
    TrialConfig,
    run_sweep,
    support_metrics,
    write_results_csv,
)
from sparsemotion.kinematics import Pose, clamp_angles
from sparsemotion.pksp import build_ambiguous_observation
from sparsemotion.solvers import BudgetExceededError, SolveOptions, SolverError
from sparsemotion.tracker import TrackOptions, pose_from_json, pose_to_json

RESOURCE_ERRORS = (BudgetExceededError, SolverError)
BUILTIN_ERRORS = {name for name, obj in vars(builtins).items()
                  if inspect.isclass(obj) and issubclass(obj, BaseException)}


def package_exceptions():
    """(qualified name, class) of each exception class a package module
    defines."""
    found = []
    for info in pkgutil.iter_modules(sparsemotion.__path__):
        module = importlib.import_module(f"sparsemotion.{info.name}")
        for name, obj in vars(module).items():
            if (inspect.isclass(obj) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__):
                found.append((f"{module.__name__}.{name}", obj))
    return found


def test_every_package_error_has_an_exit_code():
    names = [name for name, _ in package_exceptions()]
    assert "sparsemotion.errors.InputError" in names
    assert "sparsemotion.camera.RankDeficientError" in names
    stray = [name for name, cls in package_exceptions()
             if not issubclass(cls, InputError) and cls not in RESOURCE_ERRORS]
    assert stray == []
    assert not any(issubclass(cls, InputError) for cls in RESOURCE_ERRORS)


def builtin_raises(source: str):
    """Line numbers of raise statements naming a builtin exception class,
    raised as the class or as a call of it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(exc, ast.Name) and exc.id in BUILTIN_ERRORS:
            lines.append(node.lineno)
    return lines


def test_checker_flags_each_builtin_raise():
    source = "\n".join(
        f"raise {exc}"
        for exc in ("ValueError('x')", "InputError('x')", "KeyError",
                    "e", "RuntimeError('x') from e", "", "errors.InputError()",
                    "ZeroDivisionError"))
    assert builtin_raises(source) == [1, 3, 5, 8]


def test_package_raises_only_its_own_errors():
    found = [
        f"{path.name}:{line}"
        for path in sorted(Path(sparsemotion.__file__).parent.glob("*.py"))
        for line in builtin_raises(path.read_text())
    ]
    assert found == []


def edited_pose(pose, edit):
    obj = pose_to_json(pose)
    edit(obj)
    return obj


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda skel, cam, pose: run_sweep(skel, [], cam, [(1, 0.0)], 1, 0),
                 "no poses to sweep", id="run_sweep-no-poses"),
    pytest.param(lambda skel, cam, pose: TrialConfig(1, 0.0, (0.01, 0.02, 0.03)),
                 "magnitude range must be a (min, max) pair",
                 id="TrialConfig-three-magnitudes"),
    pytest.param(lambda skel, cam, pose: pose_from_json(edited_pose(
                     pose, lambda o: o["cameraToRoot"]["rotation"].pop()), 40),
                 "pose rotation has 8 entries, expected 9",
                 id="pose_from_json-8-rotation-numbers"),
    pytest.param(lambda skel, cam, pose: pose_from_json(edited_pose(
                     pose, lambda o: o.pop("theta_deg")), 40),
                 "pose has no key 'theta_deg'", id="pose_from_json-missing-key"),
    pytest.param(lambda skel, cam, pose: assemble_system(
                     skel, Pose(pose.camera_to_root, np.zeros(5)), cam),
                 "pose has 5 angles, skeleton has 40 DoF",
                 id="assemble_system-5-angles"),
    pytest.param(lambda skel, cam, pose: clamp_angles(np.zeros(5), skel),
                 "angle vector dimension mismatch", id="clamp_angles"),
    pytest.param(lambda skel, cam, pose: support_metrics(np.zeros(3), np.zeros(4)),
                 "dimension mismatch", id="support_metrics"),
    pytest.param(lambda skel, cam, pose: write_results_csv([], os.devnull),
                 "no rows to write", id="write_results_csv-no-rows"),
    pytest.param(lambda skel, cam, pose: CameraModel("1145"),
                 "focal '1145' is not a number", id="CameraModel-focal-string"),
    pytest.param(lambda skel, cam, pose: CameraModel(True),
                 "focal True is not a number", id="CameraModel-focal-bool"),
    pytest.param(lambda skel, cam, pose: CameraModel(1145.0, min_depth=None),
                 "min_depth None is not a number", id="CameraModel-min-depth-none"),
    pytest.param(lambda skel, cam, pose: CameraModel(1145.0, principal="ab"),
                 "principal must be 2 finite numbers", id="CameraModel-principal-string"),
    pytest.param(lambda skel, cam, pose: SolveOptions(max_iter="5"),
                 "max_iter '5' is not an integer", id="SolveOptions-max-iter-string"),
    pytest.param(lambda skel, cam, pose: SolveOptions(omega_max="1"),
                 "omega_max '1' is not a number", id="SolveOptions-omega-max-string"),
    pytest.param(lambda skel, cam, pose: TrackOptions(reinit_threshold_px="50"),
                 "reinit threshold '50' is not a number",
                 id="TrackOptions-threshold-string"),
    pytest.param(lambda skel, cam, pose: TrialConfig("1", 0.0),
                 "support size '1' is not an integer", id="TrialConfig-size-string"),
    pytest.param(lambda skel, cam, pose: TrialConfig(1.5, 0.0),
                 "support size 1.5 is not an integer", id="TrialConfig-size-float"),
    pytest.param(lambda skel, cam, pose: TrialConfig(1, "0.5"),
                 "noise std '0.5' is not a number", id="TrialConfig-noise-string"),
    pytest.param(lambda skel, cam, pose: TrialConfig(1, 0.0, ("a", "b")),
                 "magnitude range min 'a' is not a number",
                 id="TrialConfig-magnitudes-strings"),
    pytest.param(lambda skel, cam, pose: build_ambiguous_observation(
                     assemble_system(skel, pose, cam), np.ones(40), (-1, 0, 1)),
                 "support indices out of range 0..39",
                 id="build_ambiguous_observation-negative-index"),
    pytest.param(lambda skel, cam, pose: build_ambiguous_observation(
                     assemble_system(skel, pose, cam), np.ones(40), (40, 0, 1)),
                 "support indices out of range 0..39",
                 id="build_ambiguous_observation-index-past-dof"),
])
def test_library_refusals_are_input_errors(call, message, skel40, cam1145,
                                            skel40_pose):
    with pytest.raises(InputError, match=re.escape(message)):
        call(skel40, cam1145, skel40_pose)


# one valid construction of each options class whose numeric fields the
# next test walks
OPTION_CLASSES = {
    CameraModel: {"focal": 1145.0},
    SolveOptions: {},
    TrackOptions: {},
    TrialConfig: {"support_size": 1, "noise_std_px": 0.0},
}
NUMERIC_FIELDS = [
    (cls, f.name) for cls in OPTION_CLASSES for f in dataclasses.fields(cls)
    if re.search(r"\b(int|float)\b|ndarray", str(f.type))
]


@pytest.mark.parametrize("value", ["12", True], ids=["string", "bool"])
@pytest.mark.parametrize("cls, name", NUMERIC_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, name in NUMERIC_FIELDS])
def test_numeric_option_fields_refuse_non_numbers(cls, name, value):
    """Every number field of an options class, one added later included,
    refuses a string and a bool with an InputError."""
    with pytest.raises(InputError):
        cls(**{**OPTION_CLASSES[cls], name: value})


def test_numeric_field_walk_sees_every_class():
    assert {cls for cls, _ in NUMERIC_FIELDS} == set(OPTION_CLASSES)
