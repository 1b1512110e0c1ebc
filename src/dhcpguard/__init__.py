"""dhcpguard: simulate rogue-DHCP era LAN attacks and detect them.

The package splits into the protocol model (:mod:`dhcpguard.dhcp`), the
trace records (:mod:`dhcpguard.trace`), the deterministic simulator
(:mod:`dhcpguard.netsim`), the three detection layers
(:mod:`dhcpguard.pipeline`, :mod:`dhcpguard.signatures`,
:mod:`dhcpguard.anomaly`), report arithmetic (:mod:`dhcpguard.metrics`)
and the CLI (:mod:`dhcpguard.cli`).

A public name's module is imported on first access to the name, so
``from dhcpguard import Pipeline`` loads the detection layers and not
the simulator or the report code.
"""

import importlib

__version__ = "0.1.0"

# Each module and the public names it defines.
_EXPORTS = {
    "alerts": ("Alert", "AlertClass", "Layer", "Severity"),
    "anomaly": ("AnomalyConfig", "Baseline", "ConfusionCounters", "Outcome", "SignVerdict",
                "classify", "sign_of_attack"),
    "dhcp": ("AddressPool", "DhcpClient", "DhcpMessage", "DhcpServer", "Ipv4Addr", "MacAddr",
             "MsgType", "PoolExhausted", "decode_message", "encode_message"),
    "metrics": ("RunReport", "build_report", "efficiency", "overall_probability",
                "packet_analysis_capacity", "precision"),
    "netsim": ("Scenario", "ScenarioKind", "Trace", "default_scenario", "read_trace",
               "replay_client_bindings", "run_scenario", "write_trace"),
    "pipeline": ("DhcpRegistry", "Pipeline", "Policy", "run_detection", "verify_dhcp_offer"),
    "signatures": ("IngredientConfig", "Signature", "SignatureDb", "SlidingWindow",
                   "eval_ingredients", "load_signatures", "match_signature"),
    "trace": ("AttackClass", "NodeSpec", "Role", "SimEvent"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value
