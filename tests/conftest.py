import itertools
import json

import numpy as np
import pytest

from sparsemotion import CameraModel, default_skeleton, solvers
from sparsemotion.camera import assemble_system
from sparsemotion.experiments import sample_pose
from sparsemotion.kinematics import Pose, load_skeleton
from sparsemotion.liegroup import RigidTransform
from sparsemotion.pksp import check_pksp


def toy12_config() -> str:
    """12-DoF, 4-landmark test rig with two strong joints at indices 1, 2.

    The base DoF projects as pure rigid motion (always ambiguous); the two
    strong joints carry long in-plane levers so the certified supports are
    exactly {1}, {2}, {1, 2}; the nine weak joints give an abundance of
    non-certified supports.
    """
    weak = 0.02
    joints = [
        dict(id=0, name="base", parent=-1, offset=[0, 0, 0],
             dof=[dict(axis=[0, 0, 1], min_deg=-180, max_deg=180)]),
        dict(id=1, name="strong_a", parent=0, offset=[0.4, 0, 0],
             dof=[dict(axis=[0, 0, 1], min_deg=-90, max_deg=90)]),
        dict(id=2, name="strong_b", parent=0, offset=[-0.4, 0, 0],
             dof=[dict(axis=[0, 0, 1], min_deg=-90, max_deg=90)]),
        dict(id=3, name="w1", parent=1, offset=[0.5, 0, 0],
             dof=[dict(axis=[0, 0, 1], min_deg=-90, max_deg=90)]),
        dict(id=4, name="w2", parent=3, offset=[weak, 0, 0],
             dof=[dict(axis=[0, 1, 0], min_deg=-90, max_deg=90)]),
        dict(id=5, name="w3", parent=4, offset=[weak, 0, 0],
             dof=[dict(axis=[1, 0, 0], min_deg=-90, max_deg=90)]),
        dict(id=6, name="w4", parent=5, offset=[weak, 0, 0],
             dof=[dict(axis=[0, 0, 1], min_deg=-90, max_deg=90)]),
        dict(id=7, name="w5", parent=2, offset=[0, -0.5, 0],
             dof=[dict(axis=[0, 0, 1], min_deg=-90, max_deg=90)]),
        dict(id=8, name="w6", parent=7, offset=[0, -weak, 0],
             dof=[dict(axis=[0, 1, 0], min_deg=-90, max_deg=90)]),
        dict(id=9, name="w7", parent=8, offset=[0, -weak, 0],
             dof=[dict(axis=[1, 0, 0], min_deg=-90, max_deg=90)]),
        dict(id=10, name="w8", parent=9, offset=[0, -weak, 0],
             dof=[dict(axis=[0, 0, 1], min_deg=-90, max_deg=90)]),
        dict(id=11, name="w9", parent=10, offset=[0, -weak, 0],
             dof=[dict(axis=[0, 1, 0], min_deg=-90, max_deg=90)]),
    ]
    landmarks = [
        dict(id=0, joint=0, local=[0.0, 0.3, 0.0]),
        dict(id=1, joint=6, local=[weak, 0.0, 0.0]),
        dict(id=2, joint=11, local=[0.0, -weak, 0.0]),
        dict(id=3, joint=1, local=[0.25, 0.0, 0.1]),
    ]
    return json.dumps(dict(name="toy12", joints=joints, landmarks=landmarks))


def toy8_config() -> str:
    """8-DoF, 4-landmark rig: a base joint plus a 7-joint chain."""
    joints = [
        dict(id=0, name="base", parent=-1, offset=[0, 0, 0],
             dof=[dict(axis=[0, 0, 1], min_deg=-180, max_deg=180)]),
        dict(id=1, name="a", parent=0, offset=[0.3, 0, 0],
             dof=[dict(axis=[0, 0, 1], min_deg=-90, max_deg=90)]),
        dict(id=2, name="b", parent=1, offset=[0.3, 0, 0],
             dof=[dict(axis=[0, 1, 0], min_deg=-90, max_deg=90)]),
        dict(id=3, name="c", parent=2, offset=[0.25, 0, 0],
             dof=[dict(axis=[0, 0, 1], min_deg=-90, max_deg=90)]),
        dict(id=4, name="d", parent=0, offset=[0, -0.3, 0],
             dof=[dict(axis=[0, 0, 1], min_deg=-90, max_deg=90)]),
        dict(id=5, name="e", parent=4, offset=[0, -0.3, 0],
             dof=[dict(axis=[1, 0, 0], min_deg=-90, max_deg=90)]),
        dict(id=6, name="f", parent=5, offset=[0, -0.25, 0],
             dof=[dict(axis=[0, 0, 1], min_deg=-90, max_deg=90)]),
        dict(id=7, name="g", parent=6, offset=[0, -0.2, 0],
             dof=[dict(axis=[0, 1, 0], min_deg=-90, max_deg=90)]),
    ]
    landmarks = [
        dict(id=0, joint=0, local=[0.0, 0.25, 0.0]),
        dict(id=1, joint=3, local=[0.2, 0.0, 0.0]),
        dict(id=2, joint=7, local=[0.0, -0.15, 0.0]),
        dict(id=3, joint=1, local=[0.15, 0.0, 0.1]),
    ]
    return json.dumps(dict(name="toy8", joints=joints, landmarks=landmarks))


def in_bounds_pose(skel, rng, spread=0.5, depth=3.0) -> Pose:
    theta = rng.uniform(
        np.maximum(skel.bounds_min, -spread), np.minimum(skel.bounds_max, spread)
    )
    Tc = RigidTransform(np.eye(3), np.array([0.0, 0.0, depth]))
    return Pose(camera_to_root=Tc, theta=theta)


def enumerated_order(Z, s):
    """(worst support, verdict) of order s by exhaustive enumeration:
    check_pksp on every support in lexicographic order, keeping the first
    with the smallest margin.  The reference for check_pksp_order."""
    worst = None
    for F in itertools.combinations(range(Z.shape[0]), s):
        verdict = check_pksp(Z, F)
        if worst is None or verdict.margin < worst[1].margin:
            worst = (F, verdict)
    return worst


def plant_highs_status(monkeypatch, status):
    """End every LP, basis pursuit and sign pattern alike, in the HiGHS
    model status given: the instances solvers makes report it where
    _highs_lp reads it."""
    class Planted(solvers.highs._Highs):
        def getModelStatus(self):
            return status

    monkeypatch.setattr(solvers.highs, "_Highs", Planted)


def plant_pass_model_error(monkeypatch):
    """Make HiGHS reject every LP model solvers hands it: passModel returns
    kError, as it does for an integrality array of the wrong length."""
    class Planted(solvers.highs._Highs):
        def passModel(self, *args):
            super().passModel(*args)
            return solvers.highs.HighsStatus.kError

    monkeypatch.setattr(solvers.highs, "_Highs", Planted)


@pytest.fixture(scope="session")
def skel40():
    return default_skeleton()


@pytest.fixture(scope="session")
def cam1145():
    return CameraModel(focal=1145.0)


@pytest.fixture(scope="session")
def toy12():
    return load_skeleton(toy12_config())


@pytest.fixture(scope="session")
def toy8():
    return load_skeleton(toy8_config())


@pytest.fixture(scope="session")
def toy12_system(toy12, cam1145):
    pose = in_bounds_pose(toy12, np.random.default_rng(5))
    return assemble_system(toy12, pose, cam1145)


@pytest.fixture(scope="session")
def toy8_system(toy8, cam1145):
    pose = in_bounds_pose(toy8, np.random.default_rng(5))
    return assemble_system(toy8, pose, cam1145)


@pytest.fixture(scope="session")
def skel40_pose(skel40):
    return sample_pose(skel40, np.random.default_rng(7))


@pytest.fixture(scope="session")
def skel40_system(skel40, skel40_pose, cam1145):
    return assemble_system(skel40, skel40_pose, cam1145)
