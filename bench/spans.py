"""In-memory call spans around the library's public functions.

A :class:`Tracer` replaces functions on modules and methods on classes with
wrappers that record one span per call: name, parent span, start and end
(``time.perf_counter``), and an optional note taken from the return value.
Callers inside the library import functions by name, so a wrapper must sit in
the namespace where the caller looks the name up; ``LAYER_TARGETS`` lists those
places. ``remove`` puts every original back.

``layer_metrics`` turns the spans of one traced run into the per-layer metrics
named ``<module>.<metric>``.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

NAME, PARENT, START, END, NOTE = range(5)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), None, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx, note=None):
        self.spans[idx][END] = time.perf_counter()
        self.spans[idx][NOTE] = note
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def patch(self, owner, attr, name, note=None):
        """Wrap ``owner.attr`` (a module function or a class's method)."""
        fn = vars(owner)[attr]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._close(idx, None if note is None or result is None else note(result))

        setattr(owner, attr, wrapper)
        self._saved.append((owner, attr, fn))

    def install(self, targets):
        for owner, attr, name, note in targets:
            self.patch(owner, attr, name, note)

    def remove(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def write(self, path):
        with open(path, "w") as fh:
            for idx, (name, parent, t0, t1, note) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": idx, "name": name, "parent": parent,
                         "start": t0, "end": t1, "note": note}
                    )
                    + "\n"
                )


def layer_targets(lm):
    """(owner, attribute, span name, note) for every traced call site.

    Span names follow the layer that owns the function. ``prox_logdet`` keeps
    its call site (ADMM or SSN) because the dual-evaluation count needs the
    SSN calls alone. The Clarke mask is evaluated once per Newton iteration,
    which makes it the Newton-iteration counter.
    """
    admm, dca, ssn, sweep = lm.admm, lm.dca, lm.ssn, lm.sweep
    history_len = lambda report: len(report.history)
    return [
        (admm, "solve_l1", "admm.solve_l1", None),
        (dca, "solve_l1", "admm.solve_l1", None),
        (admm, "admm_step", "admm.admm_step", None),
        (admm, "kkt_residuals", "admm.kkt_residuals", None),
        (admm, "prox_logdet", "admm.prox_logdet", None),
        (dca, "solve_mcp", "dca.solve_mcp", history_len),
        (sweep, "solve_mcp", "dca.solve_mcp", history_len),
        (dca, "ssn_solve", "ssn.ssn_solve", lambda res: bool(res.converged)),
        (dca, "recover_primal", "ssn.recover_primal", None),
        (dca, "subproblem_error_vector", "dca.subproblem_error_vector", None),
        (dca, "objective_value", "penalty.objective_value", None),
        (ssn, "prox_logdet", "ssn.prox_logdet", None),
        (ssn, "prox_logdet_dderiv", "ssn.prox_logdet_dderiv", None),
        (ssn, "clarke_diag", "ssn.clarke_diag", None),
        (sweep, "make_instance", "sweep.make_instance", None),
        (lm.ProblemData, "__init__", "problem.init", None),
        (lm.ProblemData, "astar", "problem.astar", None),
        (lm.ProblemData, "a", "problem.a", None),
        (lm.GramSolver, "__init__", "linalg.gram_build", None),
        (lm.GramSolver, "solve", "linalg.gram_solve", None),
    ]


def self_times(spans):
    """Duration of each span minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def _within(spans, idx, name):
    parent = spans[idx][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def layer_metrics(spans, n):
    """Per-layer counts and times of one traced run on an n-node problem.

    Derived counts:
    dual evaluations = ssn.prox_logdet calls - recover_primal calls;
    ssn.backtracks = dual evaluations - ssn.solves - ssn.newton_iters;
    dca.cert_retries = ssn.solves - dca.outer_iters.
    """
    own = self_times(spans)
    calls, total, self_s = {}, {}, {}
    for s, t_self in zip(spans, own):
        name = s[NAME]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (s[END] - s[START])
        self_s[name] = self_s.get(name, 0.0) + t_self
    c = lambda name: calls.get(name, 0)
    t = lambda name: total.get(name, 0.0)
    ratio = lambda num, den: num / den if den else 0.0

    ssn_solves = c("ssn.ssn_solve")
    newton = c("ssn.clarke_diag")
    dual_evals = c("ssn.prox_logdet") - c("ssn.recover_primal")
    outer = sum(s[NOTE] for s in spans if s[NAME] == "dca.solve_mcp" and s[NOTE] is not None)
    ssn_converged = sum(1 for s in spans if s[NAME] == "ssn.ssn_solve" and s[NOTE])
    cg_steps = sum(
        1
        for i, s in enumerate(spans)
        if s[NAME] == "ssn.prox_logdet_dderiv" and _within(spans, i, "ssn.ssn_solve")
    )
    dderiv = c("ssn.prox_logdet_dderiv")
    return {
        "sweep.make_instance_s": t("sweep.make_instance"),
        "problem.init_s": t("problem.init"),
        "problem.astar_calls": c("problem.astar"),
        "problem.astar_s": t("problem.astar"),
        "problem.a_calls": c("problem.a"),
        "problem.a_s": t("problem.a"),
        "linalg.gram_builds": c("linalg.gram_build"),
        "linalg.gram_build_s": t("linalg.gram_build"),
        "linalg.gram_solve_calls": c("linalg.gram_solve"),
        "linalg.gram_solve_s": t("linalg.gram_solve"),
        # every prox_logdet call runs exactly one dense eigh
        "linalg.eigh_calls": c("admm.prox_logdet") + c("ssn.prox_logdet"),
        "linalg.prox_logdet_s": t("admm.prox_logdet") + t("ssn.prox_logdet"),
        "linalg.prox_dderiv_calls": dderiv,
        "linalg.prox_dderiv_s": t("ssn.prox_logdet_dderiv"),
        # computed, not measured: four n x n x n GEMMs of 2n^3 flops each
        "linalg.prox_dderiv_gflop": dderiv * 8.0 * n**3 / 1e9,
        "admm.iterations": c("admm.admm_step"),
        "admm.solve_s": t("admm.solve_l1"),
        "admm.step_self_s": self_s.get("admm.admm_step", 0.0),
        "admm.kkt_s": t("admm.kkt_residuals"),
        "ssn.solves": ssn_solves,
        "ssn.newton_iters": newton,
        "ssn.cg_steps": cg_steps,
        "ssn.cg_per_newton": ratio(cg_steps, newton),
        "ssn.backtracks": dual_evals - ssn_solves - newton,
        "ssn.converged_ratio": ratio(ssn_converged, ssn_solves),
        "ssn.solve_s": t("ssn.ssn_solve"),
        "ssn.self_s": self_s.get("ssn.ssn_solve", 0.0),
        "dca.outer_iters": outer,
        "dca.cert_retries": ssn_solves - outer,
        "dca.cert_accept_ratio": ratio(outer, ssn_solves),
        "dca.cert_s": t("dca.subproblem_error_vector"),
        "dca.self_s": self_s.get("dca.solve_mcp", 0.0),
        "penalty.objective_s": t("penalty.objective_value"),
    }
