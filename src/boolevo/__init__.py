"""Evolutionary search for highly nonlinear Boolean functions."""

__version__ = "0.1.0"

from .truthtable import (  # noqa: F401
    BEST_KNOWN_NONLINEARITY,
    MAX_DIMENSION,
    NonlinearityBounds,
    PropertyReport,
    TruthTable,
    WalshSpectrum,
    balancedness,
    bounds,
    covering_radius_bound,
    fitness,
    hadamard_transform,
    nonlinearity,
    odd_upper_bound,
    property_report,
    quadratic_bound,
    walsh_transform,
)

from .orbits import (  # noqa: F401
    OrbitTable,
    compute_orbits,
    expand,
    is_rotation_symmetric,
    orbit_count,
    orbit_sign_patterns,
    orbit_values,
    rotate_index,
)

from .encodings import (  # noqa: F401
    GENERAL,
    ROTATION,
    check_genotype,
    float_dimension,
    genotype_table,
    random_genotype,
    random_tree,
    tree_from_text,
    tree_to_text,
)

from .evaluation import (  # noqa: F401
    BitFlipSession,
    BudgetExhausted,
    FitnessEvaluator,
    Individual,
)

from .engine import (  # noqa: F401
    RunConfig,
    RunRecord,
    deserialize_genotype,
    run,
    serialize_genotype,
)

from .localsearch import LsConfig, apply_ls, ls_bitflip, ls_mutation  # noqa: F401

from .harness import (  # noqa: F401
    Campaign,
    SummaryRow,
    VerifyReport,
    export_boxplot_data,
    read_records,
    run_campaign,
    summarize,
    verify_hex,
    verify_table,
)
