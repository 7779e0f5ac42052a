"""BB84 key-distribution simulator with pluggable eavesdropper strategies."""

from .adversary import ChannelTable, channel_table
from .amplification import (
    HashDescriptor,
    PrivacyParams,
    compress,
    eve_residual_information,
    sample_hash,
)
from .harness import (
    RNG_CONTRACT,
    AggregateStats,
    ExperimentConfig,
    ExperimentReport,
    SessionRow,
    build_strategy,
    derive_seed,
    detection_rate_curve,
    run_experiment,
)
from .protocol import (
    Pulses,
    SessionBatch,
    SessionConfig,
    parity_verify,
    prepare_pulses,
    run_batch,
    run_session,
    sift,
    transmit,
)
from .quantum import (
    BQS,
    DEFAULT_ANCILLA_ANGLE,
    ReferenceList,
    build_reference_list,
    measure,
    reduce_angle,
    squared_overlap,
)

__version__ = "0.1.0"
