"""scpa-host: a drop-folder pipeline-unit runtime.

Self-contained units that cut across the UI, business, and data layers are
discovered in a watched folder, loaded through a Load/Execute/Next contract,
executed as priority-ordered chains, and hot-swapped, disabled, or rolled
back without rebuilding the embedding application.
"""

from .contract import (
    Behavior,
    ChainDirective,
    Continue,
    CONTINUE,
    Divert,
    Envelope,
    ExecutionRecord,
    HostContext,
    Layer,
    LayerBinding,
    LoadReport,
    Manifest,
    Outcome,
    PipelineUnit,
    Stop,
    STOP,
    make_envelope,
    parse_manifest,
    reference_unit,
    serialize_manifest,
    verify_payload,
)
from .chain import BoundUnit, ChainError, ErrorPolicy, order_units, run_chain
from .host import Host, HostConfig, HostStatus, start
from .registry import (
    Discovery,
    HandlerRef,
    Registry,
    RegistrySnapshot,
    UnitState,
    resolve_active,
    scan,
)

__version__ = "0.1.0"
