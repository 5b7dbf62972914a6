"""Qubit channel representations and degradability classification.

``__all__`` is the public API: exactly the names imported below, by group.
"""

from types import ModuleType as _ModuleType

# representations and named constructors
from .channels import (
    BlochParams,
    ChoiMatrix,
    KrausSet,
    PauliTransfer,
    Rank2Params,
    amplitude_damping,
    completely_dephasing,
    completely_depolarizing,
    dephasing,
    depolarizing,
    identity,
    rank2,
    unital,
)
# conversions and the stack builders of `qdeg sweep`
from .channels import (
    bell_mu,
    bloch_from_choi,
    bloch_to_choi,
    choi_from_bloch,
    choi_from_kraus,
    choi_from_transfer,
    choi_rank,
    complement,
    depolarizing_kraus,
    kraus_from_choi,
    kraus_to_choi,
    phi_of_identity,
    rank2_kraus,
    to_choi,
    transfer_from_choi,
    validate_choi,
)
# verdicts and their kernel
from .classify import (
    VERDICTS,
    ClassificationReport,
    Margins,
    Verdict,
    VerdictState,
    antidegradable_test,
    classify,
    degradable_test,
    entanglement_breaking_test,
    self_complementary_test,
    verdict_kernel,
    verdict_state,
)
# the paper's closed forms
from .classify import (
    deg_and_antideg_rank2,
    depolarizing_thresholds,
    rank2_antidegradable,
    rank2_degradable,
    rank3_antidegradable,
    rank4_antidegradable,
    unital_antidegradable,
)
# the symmetric-extension oracle
from .symext import ExtensionProblem, OracleResult, OracleStatus, barrier_feasibility, oracle_extendible

__all__ = [name for name, obj in globals().items()
           if not name.startswith("_") and not isinstance(obj, _ModuleType)]
__version__ = "0.1.0"
