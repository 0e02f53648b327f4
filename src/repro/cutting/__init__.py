"""Circuit-cutting substrate: cut specs, fragments, variants, executors, reconstruction."""

from .contraction import (
    ContractionCost,
    ContractionPlan,
    ContractionReport,
    ShardUtilization,
    SpecAxis,
    plan_contraction,
)
from .cuts import (
    CutSolution,
    GateCut,
    WireCut,
    effective_wire_cuts,
    postprocessing_cost,
)
from .dynamic_definition import (
    BinSpace,
    DynamicDefinitionPlan,
    DynamicDefinitionResult,
    HeavyBin,
    LevelReport,
    binned_probabilities,
    plan_dynamic_definition,
    reconstruct_dynamic,
)
from .executors import BatchedExactExecutor, NoisyExecutor, VariantExecutor
from .fragments import Fragment, FragmentElement, SubcircuitSpec, extract_subcircuits
from .gate_cut import (
    CUTTABLE_GATES,
    NUM_GATE_CUT_INSTANCES,
    GateCutDecomposition,
    GateCutInstance,
    decompose_gate_cut,
)
from .overhead import (
    arp_operations,
    fre_operations,
    frp_operations,
    full_state_simulation_threshold,
    postprocessing_speedup,
    reconstruction_overhead_curves,
)
from .reconstruction import INIT_STATE_DECOMPOSITION, CutReconstructor
from .sampling import SamplingExecutor
from .shot_overhead import (
    OVERHEAD_MODES,
    CutBasisWeights,
    OverheadReport,
    optimize_overhead_weights,
    sampling_overhead,
    sampling_variance_bound,
    variant_profile,
)
from .variants import (
    WIRE_CUT_INIT_LABELS,
    WIRE_CUT_MEASUREMENT_BASES,
    SubcircuitVariant,
    VariantBuilder,
    VariantSettings,
    VariantTable,
)

__all__ = [
    "BatchedExactExecutor",
    "BinSpace",
    "CUTTABLE_GATES",
    "ContractionCost",
    "ContractionPlan",
    "ContractionReport",
    "CutBasisWeights",
    "CutReconstructor",
    "CutSolution",
    "DynamicDefinitionPlan",
    "DynamicDefinitionResult",
    "HeavyBin",
    "LevelReport",
    "Fragment",
    "FragmentElement",
    "GateCut",
    "GateCutDecomposition",
    "GateCutInstance",
    "INIT_STATE_DECOMPOSITION",
    "NUM_GATE_CUT_INSTANCES",
    "NoisyExecutor",
    "OVERHEAD_MODES",
    "OverheadReport",
    "SamplingExecutor",
    "ShardUtilization",
    "SpecAxis",
    "SubcircuitSpec",
    "SubcircuitVariant",
    "VariantBuilder",
    "VariantExecutor",
    "VariantSettings",
    "VariantTable",
    "WIRE_CUT_INIT_LABELS",
    "WIRE_CUT_MEASUREMENT_BASES",
    "WireCut",
    "arp_operations",
    "binned_probabilities",
    "decompose_gate_cut",
    "effective_wire_cuts",
    "extract_subcircuits",
    "fre_operations",
    "frp_operations",
    "full_state_simulation_threshold",
    "optimize_overhead_weights",
    "plan_contraction",
    "plan_dynamic_definition",
    "postprocessing_cost",
    "postprocessing_speedup",
    "reconstruct_dynamic",
    "reconstruction_overhead_curves",
    "sampling_overhead",
    "sampling_variance_bound",
    "variant_profile",
]
