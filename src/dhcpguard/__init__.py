"""dhcpguard: simulate rogue-DHCP era LAN attacks and detect them.

The package splits into the protocol model (:mod:`dhcpguard.dhcp`), the
deterministic simulator (:mod:`dhcpguard.netsim`), the three detection
layers (:mod:`dhcpguard.pipeline`, :mod:`dhcpguard.signatures`,
:mod:`dhcpguard.anomaly`), report arithmetic (:mod:`dhcpguard.metrics`)
and the CLI (:mod:`dhcpguard.cli`).
"""

__version__ = "0.1.0"

from .alerts import Alert, AlertClass, Layer, Severity
from .anomaly import (
    AnomalyConfig,
    Baseline,
    ConfusionCounters,
    Outcome,
    SignVerdict,
    classify,
    sign_of_attack,
)
from .dhcp import (
    AddressPool,
    DhcpClient,
    DhcpMessage,
    DhcpServer,
    Ipv4Addr,
    MacAddr,
    MsgType,
    PoolExhausted,
    decode_message,
    encode_message,
)
from .metrics import (
    RunReport,
    build_report,
    efficiency,
    overall_probability,
    packet_analysis_capacity,
    precision,
)
from .netsim import (
    AttackClass,
    NodeSpec,
    Role,
    Scenario,
    ScenarioKind,
    SimEvent,
    Trace,
    default_scenario,
    read_trace,
    replay_client_bindings,
    run_scenario,
    write_trace,
)
from .pipeline import (
    DhcpRegistry,
    Pipeline,
    Policy,
    run_detection,
    verify_dhcp_offer,
)
from .signatures import (
    IngredientConfig,
    Signature,
    SignatureDb,
    SlidingWindow,
    eval_ingredients,
    load_signatures,
    match_signature,
)
