"""Spans and counts at qesolve's module boundaries, for the traced run.

`Tracer.install` replaces public functions in the namespaces their callers
read them from (for example `qesolve.families.solve_bae`, the name
`families` calls) with timing or counting wrappers, and `uninstall` puts
the originals back.  Calls inside one module (such as `solve_bae`'s own
closing checks) stay inside the caller's span.  Spans are kept in memory:
[op id, name, parent span index, start, end].
"""

from __future__ import annotations

import time
from collections import Counter

import qesolve.cli as cli
import qesolve.families as families
import qesolve.oracle as oracle
import qesolve.wavefunction as wavefunction

# (module, attribute, span name); several entries may share a name.
SPANS = (
    (families, "solve_family_detailed", "families.solve_family_detailed"),
    (families, "derive_parameters", "families.derive_parameters"),
    (families, "solve_bae", "bethe.solve_bae"),
    (families, "bae_residuals", "bethe.closing"),
    (families, "compute_w_coefficients", "bethe.closing"),
    (families, "verify_polynomial_identity", "bethe.closing"),
    (oracle, "bae_residuals", "bethe.closing"),
    (oracle, "compute_w_coefficients", "bethe.closing"),
    (oracle, "verify_polynomial_identity", "bethe.closing"),
    (oracle, "verify_solution", "oracle.verify_solution"),
    (cli, "verify_solution", "oracle.verify_solution"),
    (oracle, "schrodinger_residual", "oracle.schrodinger_residual"),
    (oracle, "default_fd_grid", "oracle.default_fd_grid"),
    (oracle, "fd_spectrum", "oracle.fd_spectrum"),
    (oracle, "eval_psi_log_derivatives", "wavefunction.eval_psi_log_derivatives"),
    (oracle, "eval_log_psi", "wavefunction.eval_log_psi"),
    (oracle, "norm_quadrature", "wavefunction.norm_quadrature"),
    (wavefunction, "norm_quadrature", "wavefunction.norm_quadrature"),
    (wavefunction, "integrate_adaptive", "quadrature.integrate_adaptive"),
    (cli, "loads_documents", "document.loads_documents"),
    (cli, "document_to_solution", "document.document_to_solution"),
    (cli, "solution_to_document", "document.solution_to_document"),
    (cli, "dumps_documents", "document.dumps_documents"),
    (cli, "main", "cli.main"),
)
# Counted, not timed: ~250 calls per match-ell solve.
COUNTED = ((families, "build_ode", "families.build_ode"), (oracle, "build_ode", "families.build_ode"))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _span(self, name, fn):
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            rec = [self.op, name, self._stack[-1] if self._stack else -1, 0.0, 0.0]
            self.spans.append(rec)
            self._stack.append(idx)
            rec[3] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                self._stack.pop()

        return wrapper

    def _counted(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        hooks = {
            # GK15 panels: one integrand call per panel.
            "quadrature.integrate_adaptive": self._count_panels,
            "oracle.fd_spectrum": self._count_points,
        }
        for module, attr, name in SPANS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            inner = hooks[name](fn) if name in hooks else fn
            setattr(module, attr, self._span(name, inner))
        for module, attr, name in COUNTED:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._counted(name, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _count_panels(self, fn):
        def integrate(f, *args, **kwargs):
            def counted(x):
                self.counts["quadrature.integrate_adaptive.panels"] += 1
                return f(x)

            return fn(counted, *args, **kwargs)

        return integrate

    def _count_points(self, fn):
        def spectrum(potential, window, grid, *args, **kwargs):
            self.counts["oracle.fd_spectrum.points"] += grid.n_points
            return fn(potential, window, grid, *args, **kwargs)

        return spectrum

    def summary(self):
        """Per span name: calls, inclusive ms, self ms; per layer: self ms.

        A span's self time is its duration minus its direct children's."""
        child = [0.0] * len(self.spans)
        for op, name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        by_name: dict[str, list] = {}
        by_layer: Counter = Counter()
        for (op, name, parent, t0, t1), inner in zip(self.spans, child):
            row = by_name.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += (t1 - t0) * 1e3
            row[2] += (t1 - t0 - inner) * 1e3
            by_layer[name.split(".", 1)[0]] += (t1 - t0 - inner) * 1e3
        return by_name, dict(by_layer)

    def metrics(self, branches: int, unmatched: int) -> dict:
        """The per-layer metrics, by name: (value, unit)."""
        by_name, by_layer = self.summary()

        def calls(name):
            return by_name.get(name, (0, 0.0, 0.0))[0]

        def ms(name):
            return by_name.get(name, (0, 0.0, 0.0))[1]

        def self_ms(name):
            return by_name.get(name, (0, 0.0, 0.0))[2]

        points = self.counts["oracle.fd_spectrum.points"]
        doc_ms = sum((row[1] for name, row in by_name.items() if name.startswith("document.")), 0.0)
        return {
            "bethe.solve_bae.calls": (calls("bethe.solve_bae"), "count"),
            "bethe.solve_bae.ms": (ms("bethe.solve_bae"), "ms"),
            "bethe.solve_bae.ms_per_branch": (ms("bethe.solve_bae") / branches if branches else 0.0, "ms/branch"),
            "bethe.closing.calls": (calls("bethe.closing"), "count"),
            "bethe.closing.ms": (ms("bethe.closing"), "ms"),
            "families.self_ms": (by_layer.get("families", 0.0), "ms"),
            "families.build_ode.calls": (self.counts["families.build_ode.calls"], "count"),
            "families.derive_parameters.ms": (ms("families.derive_parameters"), "ms"),
            "families.unmatched_branches": (unmatched, "count"),
            "oracle.fd_spectrum.calls": (calls("oracle.fd_spectrum"), "count"),
            "oracle.fd_spectrum.ms": (ms("oracle.fd_spectrum"), "ms"),
            "oracle.fd_spectrum.ns_per_point": (ms("oracle.fd_spectrum") * 1e6 / points if points else 0.0, "ns/point"),
            "oracle.default_fd_grid.ms": (ms("oracle.default_fd_grid"), "ms"),
            "oracle.schrodinger_residual.ms": (ms("oracle.schrodinger_residual"), "ms"),
            "oracle.verify_solution.self_ms": (self_ms("oracle.verify_solution"), "ms"),
            "wavefunction.norm_quadrature.ms": (ms("wavefunction.norm_quadrature"), "ms"),
            "wavefunction.eval_psi_log_derivatives.ms": (ms("wavefunction.eval_psi_log_derivatives"), "ms"),
            "quadrature.integrate_adaptive.ms": (ms("quadrature.integrate_adaptive"), "ms"),
            "quadrature.integrate_adaptive.panels": (self.counts["quadrature.integrate_adaptive.panels"], "count"),
            "document.ms": (doc_ms, "ms"),
            "cli.self_ms": (by_layer.get("cli", 0.0), "ms"),
        }
