"""Numerical Morse theory for the norm-square of a moment map on quiver
representation varieties: flow integration, critical-point classification,
stratum labeling, flow-line spaces, and closed-form retraction scenes."""

__version__ = "0.1.0"

from .quiver import (
    Quiver,
    Representation,
    GroupElement,
    LieAlgebraElement,
    Relation,
    CycleWord,
    act,
    infinitesimal_action,
    group_exp,
    relation_residual,
    cycle_trace,
)
from .moment import (
    HermitianCollection,
    CentralShift,
    moment,
    beta_of,
    f_value,
    flow_velocity,
    moment_map_equation_check,
    hessian_fd,
    hessian_matrix,
)
from .flow import (
    IntegratorConfig,
    FlowTrace,
    integrate,
    integrate_many,
    tau_level,
    trace_crossing,
    energy_identity_defect,
)
from .critical import (
    CriticalRecord,
    WeightDecomposition,
    SliceFiber,
    refine_critical,
    weight_decomposition,
    negative_slice,
    morse_index_check,
    lojasiewicz_fit,
    unstable_boundedness_check,
)
from .strata import (
    StratumLabel,
    stratum_labels,
    FlowLine,
    flow_lines,
    BrokenLineReport,
    broken_line_experiment,
)
from .retract import (
    SaddleScene,
    SlitScene,
    ScenePoint,
    connectivity_census,
    condition4_probe,
)
from .subvariety import (
    SubvarietySpec,
    project_to_variety,
    slice_variety_probe,
)
