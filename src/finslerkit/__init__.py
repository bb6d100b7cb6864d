"""Computational Finsler-type geometry on the tangent bundle.

Nonlinear connections from homogeneous Lagrangians, autoparallel transport,
exponential maps, and the normal (autoparallel-adapted) coordinate charts
they induce — with exact derivatives from truncated Taylor arithmetic and a
verification suite over the package's own geometric identities.
"""

from .bundle import TangentBundlePoint, bundle_point
from .charts import AutoparallelChart, export_grid_csv
from .connection import GeneralConnection
from .dynamics import (
    IntegrationControls,
    Trajectory,
    exp_map,
    exp_map_with_jacobian,
    integrate_autoparallel,
    integrate_horizontal_autoparallel,
)
from .errors import (
    ExcludedSetEntered,
    ExpressionError,
    FinslerKitError,
    ModelFormatError,
    NearDegenerateMetric,
    NearZeroDirection,
    NewtonDiverged,
    NonFiniteField,
    OrderUnsupported,
    OutsideTrustRegion,
    SingularJacobian,
    StepSizeUnderflow,
)
from .lagrangian import FinslerLagrangian
from .models import builtin_names, load_model, save_model
from .verify import run_verification

__version__ = "0.1.0"

__all__ = [
    "TangentBundlePoint",
    "bundle_point",
    "FinslerLagrangian",
    "load_model",
    "save_model",
    "builtin_names",
    "GeneralConnection",
    "IntegrationControls",
    "Trajectory",
    "integrate_autoparallel",
    "integrate_horizontal_autoparallel",
    "exp_map",
    "exp_map_with_jacobian",
    "AutoparallelChart",
    "export_grid_csv",
    "run_verification",
    "FinslerKitError",
    "NonFiniteField",
    "OrderUnsupported",
    "NearZeroDirection",
    "NearDegenerateMetric",
    "ExcludedSetEntered",
    "StepSizeUnderflow",
    "NewtonDiverged",
    "OutsideTrustRegion",
    "SingularJacobian",
    "ExpressionError",
    "ModelFormatError",
    "__version__",
]
