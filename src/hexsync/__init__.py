"""Deterministic simulator of decentralized hexapod gait control over a
time-synchronized three-node wireless network."""

from .clock import (
    DriftingClock,
    TICK_US,
    local_seconds_at,
    make_clock,
    relative_drift_ppm,
    ticks_at,
    true_time_of_tick,
)
from .tsch import (
    MoteState,
    asn_at,
    make_mote,
    next_keepalive_due,
    pairwise_sync_error,
    resync_to_parent,
    slot_boundary_true_time,
)
from .gait import (
    Controller,
    GaitConfig,
    GaitEvent,
    GaitHealth,
    ServoSetpoint,
    TimeRef,
    build_schedule,
    classify_gait,
    events_for_controller,
    gait_sync_error,
    period_start_true_time,
    servo_trace,
)
from .simnet import (
    ControlMode,
    LinkModel,
    Message,
    MessageKind,
    NodeSpec,
    Sim,
    SimConfig,
    Verb,
    make_sim,
)
from .experiment import (
    ErrorTrace,
    ExperimentResult,
    SchemeId,
    SchemeParams,
    analytic_bound_us,
    fit_drift_slope,
    run_scheme,
    sweep_resync_period,
    time_to_opposition,
)
