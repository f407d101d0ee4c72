"""Spans around charwit's public functions, recorded from outside the library.

A Tracer replaces a name in the namespace of the module that imported it
(or a method on its class) by a wrapper that records one span per call:
name, start, end, parent span, operation id and a small info dict.  Spans
stay in memory; the owner writes them out when it is done.  Nothing here
imports charwit at module level, so traced_cli.py can time the
package import itself.

layer_metrics() turns spans into the per-layer metrics of BENCHMARK.json.
"""

import functools
import time

NAME, START, END, PARENT, OP, INFO = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._saved = []

    def record(self, name, start, end, info=None):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, self.op, info])

    def wrap(self, owner, attr, name, info=None):
        """Replace owner.attr by a span-recording wrapper; restore() undoes it."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1,
                    tracer.op, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                tracer._stack.pop()
            if info is not None:
                span[INFO] = info(args, result)
            return result

        setattr(owner, attr, traced)
        self._saved.append((owner, attr, original))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def extend(self, spans, op):
        """Append spans recorded by another process, re-basing parent links."""
        base = len(self.spans)
        for span in spans:
            span = list(span)
            if span[PARENT] >= 0:
                span[PARENT] += base
            span[OP] = op
            self.spans.append(span)


# ---------------------------------------------------------------------------
# binding sites


def _cert_info(args, cert):
    return {"bytes": len(args[0]), "support": len(cert.xi.mults)}


def install_cli_sites(tracer):
    """Wrap every public name the CLI path calls, where its caller bound it."""
    import charwit.cli as cli
    import charwit.cyclic_coh as cyclic_coh
    import charwit.detect as detect
    import charwit.symfun as symfun
    from charwit.scalars import CyclotomicNumber, CyclotomicReal

    index = lambda args, result: {"index": int(args[0])}
    tracer.wrap(cli, "parse_polynomial", "cli.parse")
    tracer.wrap(cli, "certificate_from_json", "cli.parse", _cert_info)
    tracer.wrap(cli, "certificate_to_json", "cli.serialize",
                lambda args, text: {"bytes": len(text)})
    tracer.wrap(cli, "find_rational_witness", "detect.find_witness",
                lambda args, w: {"N": w.N})
    tracer.wrap(cli, "build_certificate", "detect.build_certificate")
    tracer.wrap(cli, "verify_certificate", "detect.verify_certificate")
    tracer.wrap(detect, "to_l_coordinates", "detect.to_l_coordinates")
    tracer.wrap(detect, "specialize", "detect.specialize",
                lambda args, poly: {"terms": len(poly.terms)})
    tracer.wrap(detect, "solve_chern_targets", "repring.solve_chern_targets",
                lambda args, xi: {"p": int(args[0])})
    tracer.wrap(detect, "symmetrize", "repring.symmetrize",
                lambda args, xi: {"support": len(xi.mults)})
    tracer.wrap(detect, "largest_prime_factor", "scalars.largest_prime_factor")
    for module in (detect, cyclic_coh, symfun):
        tracer.wrap(module, "l_table", "symfun.l_table", index)
    for attr in ("euler_class", "l_class_linear", "pullback_l_nonlinear"):
        tracer.wrap(detect, attr, "cyclic_coh.pullback")
    for attr in ("euler_class", "l_class_linear", "chern_character"):
        tracer.wrap(cyclic_coh, attr, "cyclic_coh.pullback")
    install_method_sites(tracer, symfun.GradedPolynomial, CyclotomicNumber,
                         CyclotomicReal)


def install_method_sites(tracer, graded_polynomial, cyclotomic_number,
                         cyclotomic_real):
    tracer.wrap(graded_polynomial, "substitute", "symfun.substitute")
    tracer.wrap(graded_polynomial, "evaluate", "symfun.evaluate")
    tracer.wrap(cyclotomic_number, "inverse", "scalars.cyclotomic_inverse")
    tracer.wrap(cyclotomic_real, "sign", "scalars.sign")


# ---------------------------------------------------------------------------
# per-layer metrics

# metric -> (span name, how): "total" sums the outermost spans of that name,
# "self" sums durations minus the time their child spans cover, and
# "no_l_table" sums durations minus the time of their l_table children.
TIMES = {
    "cli.import_s": ("cli.import", "total"),
    "cli.parse_s": ("cli.parse", "total"),
    "cli.serialize_s": ("cli.serialize", "total"),
    "symfun.l_table_s": ("symfun.l_table", "total"),
    "symfun.substitute_s": ("symfun.substitute", "total"),
    "symfun.evaluate_s": ("symfun.evaluate", "total"),
    "detect.to_l_coordinates_s": ("detect.to_l_coordinates", "no_l_table"),
    "detect.specialize_s": ("detect.specialize", "no_l_table"),
    "detect.find_witness_s": ("detect.find_witness", "self"),
    "detect.build_certificate_s": ("detect.build_certificate", "self"),
    "detect.verify_certificate_s": ("detect.verify_certificate", "total"),
    "repring.solve_chern_targets_s": ("repring.solve_chern_targets", "total"),
    "repring.symmetrize_s": ("repring.symmetrize", "total"),
    "cyclic_coh.pullback_s": ("cyclic_coh.pullback", "self"),
    "scalars.largest_prime_factor_s": ("scalars.largest_prime_factor", "total"),
    "scalars.cyclotomic_inverse_s": ("scalars.cyclotomic_inverse", "total"),
    "scalars.sign_s": ("scalars.sign", "total"),
    "lforms.multisignature_s": ("lforms.multisignature", "self"),
    "lforms.transfer_s": ("lforms.transfer", "total"),
}

# metric -> span name whose outermost calls are counted per operation
CALLS = {
    "symfun.evaluate_calls": "symfun.evaluate",
    "cyclic_coh.pullback_calls": "cyclic_coh.pullback",
    "scalars.largest_prime_factor_calls": "scalars.largest_prime_factor",
    "scalars.cyclotomic_inverse_calls": "scalars.cyclotomic_inverse",
    "scalars.sign_calls": "scalars.sign",
}

# metric -> (info key, reducer over every span carrying that key)
SIZES = {
    "symfun.l_table_max_index": ("index", max),
    "detect.specialized_terms": ("terms", lambda v: sum(v) / len(v)),
    "detect.witness_N": ("N", max),
    "repring.solve_p": ("p", max),
    "repring.xi_support": ("support", lambda v: sum(v) / len(v)),
    "cli.cert_bytes": ("bytes", lambda v: sum(v) / len(v)),
    "lforms.max_rank": ("rank", max),
}

UNITS = dict({m: "s" for m in TIMES}, **{m: "count" for m in CALLS},
             **{m: "count" for m in SIZES})
UNITS.update({"cli.cert_bytes": "bytes", "detect.grid_points": "count",
              "lforms.random_form_s": "s", "trace.overhead": "ratio"})


def layer_metrics(spans, ops):
    """Per-layer metrics from spans: times and calls per traced operation,
    sizes as the SIZES reducers say.  (lforms.random_form_s, per set-up,
    and trace.overhead come from the caller.)"""
    children = [0.0] * len(spans)
    l_tables = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]] += span[END] - span[START]
            if span[NAME] == "symfun.l_table":
                l_tables[span[PARENT]] += span[END] - span[START]

    def has_ancestor(span, name):
        parent = span[PARENT]
        while parent >= 0:
            if spans[parent][NAME] == name:
                return True
            parent = spans[parent][PARENT]
        return False

    totals, selfs, no_l_table, calls, grid = {}, {}, {}, {}, 0
    sizes = {key: [] for key, _ in SIZES.values()}
    for i, span in enumerate(spans):
        name, dur = span[NAME], span[END] - span[START]
        selfs[name] = selfs.get(name, 0.0) + dur - children[i]
        no_l_table[name] = no_l_table.get(name, 0.0) + dur - l_tables[i]
        if not has_ancestor(span, name):
            totals[name] = totals.get(name, 0.0) + dur
            calls[name] = calls.get(name, 0) + 1
        if name == "symfun.evaluate" and has_ancestor(span, "detect.find_witness"):
            grid += 1
        for key, value in (span[INFO] or {}).items():
            sizes[key].append(value)

    ops = max(ops, 1)
    out = {}
    for metric, (name, how) in TIMES.items():
        source = {"total": totals, "self": selfs, "no_l_table": no_l_table}[how]
        out[metric] = source.get(name, 0.0) / ops
    for metric, name in CALLS.items():
        out[metric] = calls.get(name, 0) / ops
    out["detect.grid_points"] = grid / ops
    for metric, (key, reduce) in SIZES.items():
        out[metric] = reduce(sizes[key]) if sizes[key] else 0
    return out

