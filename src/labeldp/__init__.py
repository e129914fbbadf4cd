"""Label-DP training mechanisms, label inference attacks, and the bounds
that relate the two through attack advantage."""

from .attacks import marginal_guess, spa
from .data import (
    CsvFormatError,
    Dataset,
    MixtureModel,
    SkewedBinarySpec,
    gen_mixture,
    gen_skewed_binary,
    load_csv,
    load_csv_features,
    split,
    write_csv,
)
from .mechanisms import (
    MECHANISMS,
    MechanismReport,
    PrivacyParams,
    account,
    alibi,
    keep_probability,
    lp_mst,
    pate,
    randomized_response,
    release,
    rr_with_prior,
)
from .metrics import (
    CalibrationResult,
    UtilitySpec,
    advantage_bound,
    bound_factor,
    calibrate_epsilon,
    eau_empirical,
    eau_monte_carlo,
    hoeffding_lower_bound,
    leau_estimate,
    leau_exact,
    reconstruction_bound,
    universal_bound,
    utility,
)
from .models import (
    BayesModel,
    ConstantModel,
    LogisticHyper,
    Model,
    TrainingDivergedError,
    load_model,
    log_loss,
    majority_table,
    save_model,
    stability_threshold,
    train_logistic,
)

__version__ = "0.1.0"
