"""Determinism rules: the AST checks behind the repository's core claim.

Every result in this reproduction is supposed to be a pure function of
(instance content, policy, seed, ``CODE_EPOCH``) — that is what makes store
cells resumable and benches byte-comparable.  These rules fence the three
classic ways Python code silently breaks that property:

* ``wall-clock`` — reading the host clock (``time.time``,
  ``time.perf_counter``, ``datetime.now``, …).  Legitimate uses (throughput
  stats, provenance timestamps) are few and baselined with justifications.
* ``unseeded-rng`` — randomness not derived from an explicit seed:
  ``np.random.default_rng()`` with no seed, the legacy global
  ``np.random.*`` functions (hidden shared state), and the stdlib ``random``
  module's global functions.
* ``set-iteration`` — iterating directly over a freshly built ``set`` /
  ``frozenset`` where the iteration order can leak into ordered output
  (Python sets iterate in hash order, which varies across processes for
  ``str`` keys).  Restricted to the core/simulation/store subtrees, where
  ordering feeds schedules and persisted records.
* ``float-equality`` — ``==`` / ``!=`` against a float literal in a boolean
  context inside the numeric hot paths (core/lp/simulation).  The PR 5
  simplex defect (a 1e-10 coefficient selecting a suboptimal vertex) is the
  canonical instance of the bug class; exact-zero tests that are correct by
  construction are baselined, not waived wholesale.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Set, Tuple

from .findings import Finding
from .registry import Rule, RuleSpec, register_rule

__all__ = [
    "FloatEqualityRule",
    "SetIterationRule",
    "UnseededRngRule",
    "WallClockRule",
]

#: ``time`` module attributes that read the host clock.
_CLOCK_ATTRS = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
        "clock",
    }
)
#: ``time`` functions that read the host clock *only when called without a
#: time argument* (``time.localtime()`` vs ``time.localtime(ts)``).
_CLOCK_WHEN_NO_TIME_ARG = frozenset({"localtime", "gmtime", "ctime", "asctime"})
#: ``datetime``/``date`` classmethods that read the host clock.
_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})


def _implicit_clock_read(attr: str, node: ast.Call) -> bool:
    """Whether calling ``time.<attr>`` with this arg shape reads the clock.

    ``localtime``/``gmtime``/``ctime``/``asctime`` fall back to "now" when
    given no time value; ``strftime(fmt)`` with only a format string does
    the same.  With an explicit time tuple/seconds argument they are pure
    conversions and stay unflagged.
    """
    if attr in _CLOCK_WHEN_NO_TIME_ARG:
        return not node.args and not node.keywords
    if attr == "strftime":
        return len(node.args) == 1 and not node.keywords
    return False

#: Legacy global-state ``numpy.random`` functions (shared hidden RNG).
_NP_GLOBAL_FNS = frozenset(
    {
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "ranf",
        "sample",
        "choice",
        "shuffle",
        "permutation",
        "seed",
        "uniform",
        "normal",
        "standard_normal",
        "exponential",
        "poisson",
        "pareto",
        "beta",
        "gamma",
        "binomial",
    }
)
#: Stdlib ``random`` module global functions (module-level Mersenne state).
_STDLIB_RANDOM_FNS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "gauss",
        "normalvariate",
        "expovariate",
        "paretovariate",
        "betavariate",
        "gammavariate",
        "triangular",
        "seed",
        "getrandbits",
        "randbytes",
    }
)


class _ImportTable:
    """Per-module import aliases the determinism rules resolve names through."""

    def __init__(self, tree: ast.Module) -> None:
        self.module_aliases: Dict[str, str] = {}  # local name -> imported module
        self.from_imports: Dict[str, Tuple[str, str]] = {}  # local -> (module, attr)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.module_aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    self.from_imports[alias.asname or alias.name] = (
                        node.module,
                        alias.name,
                    )

    def aliases_of(self, module: str) -> Set[str]:
        """Local names bound to ``module`` by a plain ``import``."""
        return {
            local for local, imported in self.module_aliases.items() if imported == module
        }

    def names_from(self, module: str) -> Dict[str, str]:
        """Local names bound by ``from module import ...`` → original attr."""
        return {
            local: attr
            for local, (mod, attr) in self.from_imports.items()
            if mod == module
        }


def _call_target(node: ast.Call) -> Tuple[List[str], ast.AST]:
    """Dotted-name chain of a call's function (``np.random.default_rng`` →
    ``["np", "random", "default_rng"]``); empty for non-name targets."""
    chain: List[str] = []
    func: ast.AST = node.func
    while isinstance(func, ast.Attribute):
        chain.append(func.attr)
        func = func.value
    if isinstance(func, ast.Name):
        chain.append(func.id)
        chain.reverse()
        return chain, func
    return [], func


#: The single module allowed to read the host clock: every other site goes
#: through its ``wall_clock()`` / ``utc_now()`` accessors (PR 8).
_SANCTIONED_CLOCK_MODULE = "src/repro/obs/clock.py"


class WallClockRule(Rule):
    """Flag host-clock reads (``time.time()``, ``datetime.now()``, …).

    Implicit reads count too: ``time.localtime()`` / ``gmtime()`` /
    ``ctime()`` / ``asctime()`` with no time argument, and
    ``time.strftime(fmt)`` with only a format string, all silently fall
    back to "now" — journal timestamps must instead flow through
    ``repro.obs.clock.unix_time()``.

    ``repro.obs.clock`` is the one sanctioned exemption — it *is* the
    accessor every legitimate wall-clock consumer (throughput stats,
    provenance timestamps, the phase profiler) must call, so the baseline
    carries no wall-clock entries at all.
    """

    def check_module(self, module, project) -> Iterable[Finding]:
        if module.relpath == _SANCTIONED_CLOCK_MODULE:
            return
        imports = _ImportTable(module.tree)
        time_aliases = imports.aliases_of("time")
        datetime_module_aliases = imports.aliases_of("datetime")
        time_fns = {
            local
            for local, attr in imports.names_from("time").items()
            if attr in _CLOCK_ATTRS
        }
        time_implicit_fns = {
            local: attr
            for local, attr in imports.names_from("time").items()
            if attr in _CLOCK_WHEN_NO_TIME_ARG or attr == "strftime"
        }
        datetime_classes = {
            local
            for local, attr in imports.names_from("datetime").items()
            if attr in ("datetime", "date")
        }
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            chain, _ = _call_target(node)
            if not chain:
                continue
            flagged = None
            if len(chain) == 2 and chain[0] in time_aliases and chain[1] in _CLOCK_ATTRS:
                flagged = f"{chain[0]}.{chain[1]}()"
            elif (
                len(chain) == 2
                and chain[0] in time_aliases
                and _implicit_clock_read(chain[1], node)
            ):
                flagged = f"{chain[0]}.{chain[1]}(...)"
            elif len(chain) == 1 and chain[0] in time_fns:
                flagged = f"{chain[0]}()"
            elif len(chain) == 1 and _implicit_clock_read(
                time_implicit_fns.get(chain[0], ""), node
            ):
                flagged = f"{chain[0]}(...)"
            elif (
                len(chain) == 2
                and chain[0] in datetime_classes
                and chain[1] in _DATETIME_ATTRS
            ):
                flagged = f"{chain[0]}.{chain[1]}()"
            elif (
                len(chain) == 3
                and chain[0] in datetime_module_aliases
                and chain[1] in ("datetime", "date")
                and chain[2] in _DATETIME_ATTRS
            ):
                flagged = ".".join(chain) + "()"
            if flagged is not None:
                yield self.finding(
                    module.relpath,
                    node.lineno,
                    f"wall-clock read {flagged}: results must be pure functions "
                    "of (content, seed, epoch) — derive times from simulation "
                    "state, or go through repro.obs.clock (wall_clock() for "
                    "throughput stats, utc_now() for provenance timestamps)",
                    context=module.line_context(node.lineno),
                )


class UnseededRngRule(Rule):
    """Flag randomness that is not derived from an explicit seed."""

    def check_module(self, module, project) -> Iterable[Finding]:
        imports = _ImportTable(module.tree)
        numpy_aliases = imports.aliases_of("numpy")
        np_random_aliases = imports.aliases_of("numpy.random") | {
            local
            for local, attr in imports.names_from("numpy").items()
            if attr == "random"
        }
        random_aliases = imports.aliases_of("random")
        stdlib_fns = {
            local
            for local, attr in imports.names_from("random").items()
            if attr in _STDLIB_RANDOM_FNS
        }
        ctor_names = {
            local
            for local, attr in imports.names_from("numpy.random").items()
            if attr in ("default_rng", "RandomState")
        }

        def has_seed(call: ast.Call) -> bool:
            if call.args:
                seed = call.args[0]
                return not (isinstance(seed, ast.Constant) and seed.value is None)
            for keyword in call.keywords:
                if keyword.arg == "seed":
                    return not (
                        isinstance(keyword.value, ast.Constant)
                        and keyword.value.value is None
                    )
            return False

        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            chain, _ = _call_target(node)
            if not chain:
                continue
            dotted = ".".join(chain)
            is_np_random = (
                len(chain) >= 2 and chain[0] in numpy_aliases and chain[1] == "random"
            ) or (len(chain) >= 1 and chain[0] in np_random_aliases)
            tail = chain[-1]
            if is_np_random and tail in ("default_rng", "RandomState", "Generator"):
                if not has_seed(node):
                    yield self.finding(
                        module.relpath,
                        node.lineno,
                        f"unseeded RNG {dotted}(): entropy comes from the OS, so "
                        "two runs differ — pass a seed (SeedSequence-derived)",
                        context=module.line_context(node.lineno),
                    )
            elif len(chain) == 1 and chain[0] in ctor_names:
                if not has_seed(node):
                    yield self.finding(
                        module.relpath,
                        node.lineno,
                        f"unseeded RNG {dotted}(): pass an explicit seed",
                        context=module.line_context(node.lineno),
                    )
            elif is_np_random and tail in _NP_GLOBAL_FNS and len(chain) > 1:
                yield self.finding(
                    module.relpath,
                    node.lineno,
                    f"global-state RNG {dotted}(): the legacy numpy.random "
                    "functions share one hidden RNG whose state depends on "
                    "call order — use a seeded Generator instead",
                    context=module.line_context(node.lineno),
                )
            elif len(chain) == 2 and chain[0] in random_aliases:
                if tail in _STDLIB_RANDOM_FNS:
                    yield self.finding(
                        module.relpath,
                        node.lineno,
                        f"global-state RNG {dotted}(): the stdlib random module "
                        "functions share one hidden RNG — use a seeded "
                        "random.Random or numpy Generator",
                        context=module.line_context(node.lineno),
                    )
                elif tail == "Random" and not node.args:
                    yield self.finding(
                        module.relpath,
                        node.lineno,
                        f"unseeded RNG {dotted}(): pass an explicit seed",
                        context=module.line_context(node.lineno),
                    )
            elif len(chain) == 1 and chain[0] in stdlib_fns:
                yield self.finding(
                    module.relpath,
                    node.lineno,
                    f"global-state RNG {dotted}(): use a seeded random.Random "
                    "or numpy Generator",
                    context=module.line_context(node.lineno),
                )


def _is_bare_set_expression(node: ast.AST) -> bool:
    """Whether ``node`` evaluates to a freshly built set (literal/comp/call)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


class SetIterationRule(Rule):
    """Flag direct iteration over a freshly built set (hash-order leak)."""

    def check_module(self, module, project) -> Iterable[Finding]:
        iterables: List[Tuple[ast.AST, int]] = []
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iterables.append((node.iter, node.lineno))
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
                for comp in node.generators:
                    iterables.append((comp.iter, comp.iter.lineno))
        for iterable, lineno in iterables:
            if _is_bare_set_expression(iterable):
                yield self.finding(
                    module.relpath,
                    lineno,
                    "iteration over a bare set: Python set order is hash order "
                    "(process-dependent for str keys) — wrap in sorted(...) "
                    "before the order can reach schedules or persisted output",
                    context=module.line_context(lineno),
                )


def _float_literal(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


class FloatEqualityRule(Rule):
    """Flag ``==``/``!=`` against float literals in boolean contexts."""

    def check_module(self, module, project) -> Iterable[Finding]:
        # Collect every node living inside a boolean-decision subtree: the
        # tests of if/while/assert/ternary, comprehension filters, operands
        # of boolean operators and not, and arguments of all()/any().
        boolean_roots: List[ast.AST] = []
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.If, ast.While, ast.IfExp)):
                boolean_roots.append(node.test)
            elif isinstance(node, ast.Assert):
                boolean_roots.append(node.test)
            elif isinstance(node, ast.BoolOp):
                boolean_roots.extend(node.values)
            elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
                boolean_roots.append(node.operand)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
                for comp in node.generators:
                    boolean_roots.extend(comp.ifs)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("all", "any")
            ):
                boolean_roots.extend(node.args)
        in_boolean_context: Set[int] = set()
        for root in boolean_roots:
            for node in ast.walk(root):
                in_boolean_context.add(id(node))

        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare) or id(node) not in in_boolean_context:
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _float_literal(left) or _float_literal(right):
                    yield self.finding(
                        module.relpath,
                        node.lineno,
                        "exact float equality in a hot-path branch: rounding "
                        "makes the comparison unstable (the PR 5 simplex bug "
                        "class) — compare against a tolerance from "
                        "core.tolerances, or baseline a correct-by-construction "
                        "exact-zero test with a justification",
                        context=module.line_context(node.lineno),
                    )
                    break


register_rule(
    RuleSpec(
        name="wall-clock",
        scope="module",
        factory=WallClockRule,
        severity="error",
        description="no host-clock reads outside the repro.obs.clock accessors",
    )
)
register_rule(
    RuleSpec(
        name="unseeded-rng",
        scope="module",
        factory=UnseededRngRule,
        severity="error",
        description="all randomness flows from explicit seeds (no global RNG state)",
    )
)
register_rule(
    RuleSpec(
        name="set-iteration",
        scope="module",
        factory=SetIterationRule,
        severity="warning",
        description="no bare-set iteration where hash order could reach ordered output",
        applies_to=(
            "src/repro/core/",
            "src/repro/simulation/",
            "src/repro/store/",
        ),
    )
)
register_rule(
    RuleSpec(
        name="float-equality",
        scope="module",
        factory=FloatEqualityRule,
        severity="warning",
        description="no exact float-literal ==/!= in core/lp/simulation branches",
        applies_to=(
            "src/repro/core/",
            "src/repro/lp/",
            "src/repro/simulation/",
        ),
    )
)
