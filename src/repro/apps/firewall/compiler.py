"""The firewall host application: rules compiled into HILTI.

A Python host application that compiles a list of rules into corresponding
HILTI code (paper, section 4 "Stateful Firewall").  The generated program
is the paper's Figure 5, with ``init_rules`` produced from the user's rule
set by this analysis compiler and the remaining code static.  Matching
leverages two HILTI capabilities: the ``classifier`` data type for the
static rules, and a ``set`` indexed by host pair with an access-based
timeout for the dynamic rules.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ...core.stubs import Stub
from ...core.toolchain import hiltic
from ...core.values import Addr, Time
from ...net import ipsumdump
from .rules import RuleSet

__all__ = ["generate_hilti_source", "HiltiFirewall", "compile_firewall"]

_STATIC_CODE = """
### The host application also provides the following static code.

# The classifier storing the rules.
global ref<classifier<Rule, bool>> rules

# Dynamic rules: address pairs allowed to communicate.
global ref<set<tuple<addr, addr>>> dyn

# Function to initialize classifier at startup.
void init_classifier() {{
    rules = new classifier<Rule, bool>
    call init_rules(rules)
    classifier.compile rules

    dyn = new set<tuple<addr, addr>>
    set.timeout dyn ExpireStrategy::Access interval({timeout})
}}

# Function called for each packet, passing in
# timestamp and addresses. Returns true if ok.
bool match_packet(time t, addr src, addr dst) {{
    local bool b

    # Advance HILTI's global time. This will expire
    # inactive entries from the state set.
    timer_mgr.advance_global t

    # See if we have a state entry for this pair.
    b = set.exists dyn (src, dst)
    if.else b refresh lookup

refresh:
    # Restart the inactivity clock for both directions.
    set.insert dyn (src, dst)
    jump return_action

lookup:
    # Unknown pair, look up rule.
    try {{
        b = classifier.get rules (src, dst)
    }} catch (ref<Hilti::IndexError> e) {{
        return False  # No match, default deny.
    }}
    if.else b add_state return_action

add_state:
    # Add dynamic rules to allow both sides.
    set.insert dyn (src, dst)
    set.insert dyn (dst, src)

return_action:
    return b
}}
"""


def generate_hilti_source(ruleset: RuleSet) -> str:
    """The analysis compiler: rule set -> HILTI module source."""
    lines = [
        "module Main",
        "",
        "import Hilti",
        "",
        "# Data type for a single filter rule.",
        "type Rule = struct { net src, net dst }",
        "",
        "### Compiled rule set (net1 -> net2) -> {Allow, Deny}.",
        "### Generated by the application's analysis compiler.",
        "",
        "void init_rules(ref<classifier<Rule, bool>> r) {",
    ]
    for rule in ruleset:
        src = str(rule.src) if rule.src is not None else "*"
        dst = str(rule.dst) if rule.dst is not None else "*"
        action = "True" if rule.allow else "False"
        lines.append(f"    classifier.add r ({src}, {dst}) {action}")
    lines.append("}")
    lines.append(_STATIC_CODE.format(timeout=int(ruleset.timeout_seconds)))
    return "\n".join(lines)


class HiltiFirewall:
    """Host-side handle on the compiled firewall."""

    def __init__(self, program, tier: str):
        self.program = program
        self.tier = tier
        self.ctx = program.make_context()
        program.call(self.ctx, "Main::init_classifier")
        self._match = Stub(program, "Main::match_packet").call
        self.matches = 0
        self.lookups = 0

    def match_packet(self, when: Time, src: Addr, dst: Addr) -> bool:
        self.lookups += 1
        allowed = self._match(self.ctx, when, src, dst)
        if allowed:
            self.matches += 1
        return allowed

    def run_ipsumdump(self, lines: Sequence[str]) -> Tuple[int, int]:
        """Feed ipsumdump text; returns (matches, non_matches)."""
        matches = 0
        total = 0
        for line in lines:
            if not line.strip():
                continue
            when, src, dst = ipsumdump.parse_line(line)
            if self.match_packet(when, src, dst):
                matches += 1
            total += 1
        return matches, total - matches


def compile_firewall(ruleset: RuleSet, tier: str = "compiled",
                     opt_level: Optional[int] = None) -> HiltiFirewall:
    """Compile a rule set into a running HILTI firewall."""
    source = generate_hilti_source(ruleset)
    program = hiltic([source], tier=tier, opt_level=opt_level)
    return HiltiFirewall(program, tier)
