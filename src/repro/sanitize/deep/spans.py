"""LVM103 — span/gate balance on every path, including exceptions.

Two checks close the bug class PR 9 exposed (a mid-dispatch open
span):

**(a) Stage-span balance.**  Counting stage entries as +1 and stage
exits as −1, every path that completes *normally* must end with delta
0.  An entry is a ``stage_enter``/``device_enter`` call or a probe
event that opens a stage (``p["<kind>.begin"](...)`` for a kind in
:data:`repro.probe.STAGED_KINDS`, or ``p["stage.enter"](...)``); an
exit is a ``stage_exit`` call or the matching post-effect event
(``p["<kind>"](...)``, ``p["stage.exit"](...)``).  Paths that leave by
exception are exempt — a CrashPoint abandoning an open span is
intentional (the span is the postmortem's record of what the server
was doing).  The probe gate and its routes make the events
conditional, so the analysis enumerates every valuation of a
function's gate locals (``p = probe._ACTIVE``) and of the stage
families it tests (``"wal.append.begin" in p`` and ``"wal.append" in
p`` are one family: the causal tracker routes both or neither), and
prunes ``if p is not None and "<kind>" in p:`` branches per valuation —
otherwise two separately-gated enter/exit blocks would fabricate
impossible unbalanced paths.  Transient negative deltas are
allowed (``_serve_op`` legally exits the dispatch stage before
re-entering ``queue_wait`` when parking a begin).

Only the *stage* protocol is counted.  ``span_begin``/``span_end`` are
the tracer's internal API with its own gating discipline, and the
:mod:`repro.obs` package itself is excluded — it *implements* the
protocol; the rule checks its clients.

**(b) Gate purity.**  The observability contract since PR 3 is that a
traced run is cycle- and log-identical to a bare one, which is only
true if ``_ACTIVE`` gates never change behaviour: inside an
``if <gate> is not None:`` body (or ``if <gate> is not None and
"<kind>" in <gate>:``), control-flow statements (``return``,
``raise``, ``break``, ``continue``) and attribute stores are
forbidden — instrumentation may call and bind locals, nothing more.
This is also what makes the gated *fallback* path equivalent: if the
gate body is pure, the ``_ACTIVE is None`` fast path is reachable and
behaviourally identical.
"""

from __future__ import annotations

import ast
from itertools import product
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.probe import STAGED_KINDS
from repro.sanitize.engine import Finding
from repro.sanitize.deep.cfg import CFG, EXC, FALSE, TRUE, Node, build_cfg, calls_at
from repro.sanitize.deep.project import FunctionInfo, Project

RULE_ID = "LVM103"

ENTER_CALLS = frozenset({"stage_enter", "device_enter"})
EXIT_CALLS = frozenset({"stage_exit"})

#: Probe event kind -> (stage delta, family).  A subscriber routes a
#: family's entry and exit together (the causal tracker takes both
#: ``wal.append.begin`` and ``wal.append``, or neither).
STAGE_EVENTS: Dict[str, Tuple[int, str]] = {
    **{f"{kind}.begin": (1, kind) for kind in STAGED_KINDS},
    **{kind: (-1, kind) for kind in STAGED_KINDS},
    "stage.enter": (1, "stage"),
    "stage.exit": (-1, "stage"),
}

#: Delta tracking range; a loop pushing the delta past this is
#: reported as unbounded growth.
MAX_DELTA = 8

#: Packages excluded from the balance check (they implement the span
#: protocol rather than consume it).
EXCLUDED_PREFIXES = ("repro/obs/",)


def gate_locals(func_node: ast.AST) -> Set[str]:
    """Names assigned from a ``*._ACTIVE`` read in this function."""
    gates: Set[str] = set()
    for node in ast.walk(func_node):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "_ACTIVE"
        ):
            gates.add(node.targets[0].id)
    return gates


def _gate_test(test: ast.expr, gates: Set[str]) -> Optional[Tuple[str, bool]]:
    """Recognise ``g is None`` / ``g is not None`` / ``g`` / ``not g``.

    Returns (gate, value-of-test-when-gate-active) or None.
    """
    if isinstance(test, ast.Compare) and len(test.ops) == 1:
        left, op, right = test.left, test.ops[0], test.comparators[0]
        if (
            isinstance(left, ast.Name)
            and left.id in gates
            and isinstance(right, ast.Constant)
            and right.value is None
        ):
            if isinstance(op, ast.Is):
                return left.id, False  # "g is None" is False when active
            if isinstance(op, ast.IsNot):
                return left.id, True
    if isinstance(test, ast.Name) and test.id in gates:
        return test.id, True
    if (
        isinstance(test, ast.UnaryOp)
        and isinstance(test.op, ast.Not)
        and isinstance(test.operand, ast.Name)
        and test.operand.id in gates
    ):
        return test.operand.id, False
    return None


def _route_test(test: ast.AST, gates: Set[str]) -> Optional[str]:
    """The family key of a ``"<kind>" in <gate>`` test on a stage kind."""
    if (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], ast.In)
        and isinstance(test.left, ast.Constant)
        and test.left.value in STAGE_EVENTS
        and isinstance(test.comparators[0], ast.Name)
        and test.comparators[0].id in gates
    ):
        return f"{test.comparators[0].id}:{STAGE_EVENTS[test.left.value][1]}"
    return None


def route_families(func_node: ast.AST, gates: Set[str]) -> Set[str]:
    """Family keys of the stage-route tests in this function."""
    keys = (_route_test(node, gates) for node in ast.walk(func_node))
    return {key for key in keys if key is not None}


def _eval_test(
    test: ast.expr, gates: Set[str], combo: Dict[str, bool]
) -> Optional[bool]:
    """The test's value under ``combo``, or None when it depends on
    anything but the gates and stage routes."""
    gate = _gate_test(test, gates)
    if gate is not None:
        return combo[gate[0]] == gate[1]
    key = _route_test(test, gates)
    if key is not None:
        return combo[key]
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        values = [_eval_test(value, gates, combo) for value in test.values]
        if False in values:
            return False
        return True if all(values) else None
    return None


def _route_guard(test: ast.expr, gates: Set[str]) -> Optional[Tuple[str, bool]]:
    """The gate of ``g is not None and "<kind>" in g``: the body runs
    only with the gate active, so it is held to gate purity."""
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And) and len(test.values) == 2:
        gate = _gate_test(test.values[0], gates)
        route = test.values[1]
        if gate and gate[1] and isinstance(route, ast.Compare) and isinstance(route.ops[0], ast.In):
            return gate
    return None


def _call_delta(call: ast.Call) -> int:
    """+1 for a stage entry, -1 for a stage exit, else 0."""
    func = call.func
    if isinstance(func, ast.Subscript):
        kind = func.slice
        if isinstance(kind, ast.Constant) and kind.value in STAGE_EVENTS:
            return STAGE_EVENTS[kind.value][0]
        return 0
    if not isinstance(func, ast.Attribute):
        return 0
    name = func.attr
    if name in ENTER_CALLS:
        return 1
    if name in EXIT_CALLS:
        return -1
    return 0


def _node_delta(node: Node) -> int:
    return sum(_call_delta(call) for call in calls_at(node))


class SpanAnalysis:
    """Run LVM103 over a project."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.findings: List[Finding] = []
        self.facts: List[str] = []

    def run(self) -> None:
        for qualname in sorted(self.project.functions):
            info = self.project.functions[qualname]
            self._check_gate_purity(info)
            if info.module_path.startswith(EXCLUDED_PREFIXES):
                continue
            self._check_balance(info)

    # ------------------------------------------------------------------
    # (a) span balance
    # ------------------------------------------------------------------
    def _check_balance(self, info: FunctionInfo) -> None:
        has_events = any(
            isinstance(node, ast.Call) and _call_delta(node)
            for node in ast.walk(info.node)
        )
        if not has_events:
            return
        cfg = build_cfg(info.node)
        gates = gate_locals(info.node)
        keys = sorted(gates | route_families(info.node, gates))
        combos = [
            combo
            for values in product((False, True), repeat=len(keys))
            for combo in [dict(zip(keys, values))]
            # A route exists only while its probe is attached.
            if all(combo[key.split(":")[0]] for key in keys if ":" in key and combo[key])
        ]
        clean = True
        for combo in combos:
            clean &= self._check_combo(info, cfg, gates, combo)
        if clean:
            self.facts.append(f"lvm103 span-balanced {info.qualname}")

    def _check_combo(
        self,
        info: FunctionInfo,
        cfg: CFG,
        gates: Set[str],
        combo: Dict[str, bool],
    ) -> bool:
        """Delta fixpoint under one gate valuation; True when balanced."""
        states: Dict[int, FrozenSet[int]] = {nid: frozenset() for nid in cfg.nodes}
        states[cfg.entry.nid] = frozenset({0})
        worklist = [cfg.entry.nid]
        overflow = False
        while worklist:
            nid = worklist.pop()
            node = cfg.nodes[nid]
            in_deltas = states[nid]
            if not in_deltas:
                continue
            shift = _node_delta(node)
            out = set()
            for delta in in_deltas:
                new = delta + shift
                if abs(new) > MAX_DELTA:
                    overflow = True
                    continue
                out.add(new)
            out_deltas = frozenset(out)
            branch: Optional[bool] = None
            if isinstance(node.stmt, (ast.If, ast.While)):
                branch = _eval_test(node.stmt.test, gates, combo)
            for succ_id, kind in node.succs:
                if branch is True and kind == FALSE:
                    continue
                if branch is False and kind == TRUE:
                    continue
                if kind == EXC:
                    # Exceptional paths are exempt from balance: an
                    # abandoned span is the postmortem's record.  The
                    # exception may still be *caught* and the path
                    # resume normally — propagate the pre-event delta.
                    new = states[succ_id] | in_deltas
                else:
                    new = states[succ_id] | out_deltas
                if new != states[succ_id]:
                    states[succ_id] = new
                    worklist.append(succ_id)
        exit_deltas = states[cfg.exit.nid]
        bad = sorted(d for d in exit_deltas if d != 0)
        if overflow:
            self._report(
                info,
                info.node,
                "stage span delta grows without bound in a loop "
                f"(gate valuation {self._combo_repr(combo)})",
            )
            return False
        if bad:
            self._report(
                info,
                info.node,
                f"a normally-completing path ends with stage span delta "
                f"{bad} (every stage entry needs a stage exit "
                f"on all non-exception paths; gate valuation "
                f"{self._combo_repr(combo)})",
            )
            return False
        return True

    @staticmethod
    def _combo_repr(combo: Dict[str, bool]) -> str:
        if not combo:
            return "{}"
        return (
            "{"
            + ", ".join(
                f"{g}={'active' if v else 'None'}" for g, v in sorted(combo.items())
            )
            + "}"
        )

    # ------------------------------------------------------------------
    # (b) gate purity
    # ------------------------------------------------------------------
    def _check_gate_purity(self, info: FunctionInfo) -> None:
        if info.module_path.startswith("repro/obs/"):
            return  # the tracker may legally keep gated private state
        gates = gate_locals(info.node)
        for node in ast.walk(info.node):
            test: Optional[ast.expr] = None
            body: List[ast.stmt] = []
            if isinstance(node, ast.If):
                test, body = node.test, node.body
            elif isinstance(node, ast.While):
                test, body = node.test, node.body
            if test is None:
                continue
            gate = _gate_test(test, gates) or _route_guard(test, gates)
            direct = (
                isinstance(test, ast.Compare)
                and isinstance(test.left, ast.Attribute)
                and test.left.attr == "_ACTIVE"
            )
            if gate is None and not direct:
                continue
            if gate is not None and not gate[1]:
                continue  # "is None" guards the *fallback*, not the gate
            if len(body) == 1 and isinstance(body[0], ast.Return):
                # The fused-fallback idiom: refuse this path entirely
                # when instrumentation is active and let the caller use
                # the generic (fully instrumented) path — LVM006 holds
                # the two paths cycle-identical, so this is the one
                # control-flow use that *preserves* the contract.
                continue
            for stmt in body:
                self._check_pure(info, stmt)

    def _check_pure(self, info: FunctionInfo, stmt: ast.stmt) -> None:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(node, (ast.Return, ast.Raise, ast.Break, ast.Continue)):
                self._report(
                    info,
                    node,
                    "control flow inside an _ACTIVE instrumentation gate: "
                    "traced and bare runs must take identical paths",
                )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Subscript) and isinstance(
                        target.value, ast.Name
                    ):
                        # ``args["rids"] = ...`` into a local dict built
                        # for a span: invisible outside the gate.
                        continue
                    if isinstance(target, (ast.Attribute, ast.Subscript)):
                        self._report(
                            info,
                            node,
                            "state mutation inside an _ACTIVE instrumentation "
                            "gate: gated code may bind locals and call, not "
                            "store to objects (cycle/log-identity contract)",
                        )

    def _report(self, info: FunctionInfo, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                path=info.ctx.path,
                line=getattr(node, "lineno", info.line),
                col=getattr(node, "col_offset", 0) + 1,
                rule_id=RULE_ID,
                message=f"{message} (in {info.qualname})",
            )
        )


def check(project: Project) -> Tuple[List[Finding], List[str]]:
    """Entry point: LVM103 findings + span-balance facts."""
    analysis = SpanAnalysis(project)
    analysis.run()
    return sorted(set(analysis.findings)), sorted(analysis.facts)
