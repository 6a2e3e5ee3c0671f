"""One benchmark pass in a fresh interpreter.

Reads a job from standard input as JSON: the workload, the items the
parent generated and whether to trace; the workload "setup" stops after
set-up.  Prints one JSON line: the set-up time, the wall and CPU time of
the timed pass, peak RSS, and per item its latency and verdict.  Set-up,
pass and item times are speed-corrected (see SpeedProbe); the measured
wall times are kept beside them under "raw".  Outputs are validated here,
where the program's returned objects exist, but only after the timed pass.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

PROBE_EVERY_S = 0.05
# The probe's time in the fast state of the machine the benchmark was tuned
# on (2-vCPU Xeon VM, Python 3.11), so corrected times read close to the
# wall times of a quiet host.
NOMINAL_PROBE_S = 0.00028


def _fixed_work():
    acc = Fraction(0)
    for k in range(1, 60):
        acc = (acc + Fraction(1, k)) * Fraction(k + 1, k + 2)
    return acc


class SpeedProbe:
    """Samples the host's speed while the program runs.

    A shared host can run the machine at two speeds about 1.6 times apart
    that switch within seconds and stay slow for a minute or more, so raw
    times of one pass vary by up to 1.8 times (perfbench/README.md, Noise).
    A timer signal interrupts the program every PROBE_EVERY_S to time
    _fixed_work, about 0.3 ms of Fraction arithmetic.  The program time
    before each probe is scaled by NOMINAL_PROBE_S over that probe's time
    (median with its neighbours), which gives the seconds it would have
    taken at a fixed speed; the probes' own time is left out.
    """

    def __init__(self):
        self.samples = []  # (start, seconds) of each probe

    def probe(self, *_signal_args):
        start = time.perf_counter()
        _fixed_work()
        self.samples.append((start, time.perf_counter() - start))

    def start(self):
        _fixed_work()  # warm, so the first sample is not a cold start
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def seconds(self, begin, end):
        """Program time in [begin, end] at the nominal speed.

        Needs a probe that starts after end: call probe() when a measured
        span ends.
        """
        # a timer probe can land inside a probe() call, so order by start
        # and never let a nested probe move the end of probed time back
        samples = sorted(self.samples)
        took = [s for _, s in samples]
        total, prev_end = 0.0, float("-inf")
        for i, (start, _) in enumerate(samples):
            span = min(start, end) - max(prev_end, begin)
            if span > 0:
                total += span * NOMINAL_PROBE_S / statistics.median(took[max(i - 1, 0):i + 2])
            prev_end = max(prev_end, start + took[i])
        return total


def _verdict(holds, problems):
    """Item status from the program's claim and the benchmark's own checks.

    A program-reported failure is "fail"; a pass whose returned data does
    not bear it out, or a failure whose data shows none, is "mismatch".
    """
    if holds and not problems:
        return "pass", []
    if not holds and problems:
        return "fail", problems
    return "mismatch", problems or ["program reports failure on data that holds"]


def _check_all(harness):
    report = harness.run(harness.default_config())
    return [
        {"id": r.check_id, "status": r.status, "ms": r.runtime_ms} for r in report.results
    ]


def _exact_item(ellaw, item):
    lam = Fraction(item["lambda"])
    return ellaw.three_torsion_table(lam), ellaw.translation_compatibility_check(lam)


def _validate_exact(hesse, outputs):
    labels = hesse.hesse_data().labels
    index = {label: k for k, label in enumerate(labels)}
    table, translation = outputs
    expected = tuple(
        tuple(index[((li[0] + lj[0]) % 3, (li[1] + lj[1]) % 3)] for lj in labels)
        for li in labels
    )
    problems = []
    if table.table != expected:
        problems.append("addition table differs from the label sums")
    if translation.holds:
        found = translation.details["assignments"]
        la, lb = labels[found["cycle"]], labels[found["scale"]]
        if (la[0] * lb[1] - la[1] * lb[0]) % 3 == 0:
            problems.append("translation labels are dependent")
    else:
        problems.append(f"translation check: {translation.witness}")
    return table.holds and translation.holds, problems


def _torsion_item(ellaw, item):
    lam = Fraction(item["lambda"])
    return [
        check(lam, index, bits)
        for bits in (128, 512)
        for check, index in (
            (ellaw.nine_torsion_check, item["cubic"]),
            (ellaw.two_torsion_polar_check, item["line"]),
        )
    ]


def _validate_torsion(_hesse, reports):
    problems = []
    for rep in reports:
        tol = rep.tolerance
        where = f"{type(rep).__name__}@{rep.precision_bits}"
        residuals = [p.residual for p in rep.points]
        if hasattr(rep, "triple_indices"):
            if len(rep.points) != 9:
                problems.append(f"{where}: {len(rep.points)} points, expected 9")
            if any(k == 0 for k in rep.triple_indices):
                problems.append(f"{where}: 3p hits the origin")
            residuals += list(rep.triple_residuals) + list(rep.nine_residuals)
            residuals.append(rep.chain_residual)
        else:
            if len(rep.points) != 3:
                problems.append(f"{where}: {len(rep.points)} points, expected 3")
            residuals += list(rep.tangent_residuals) + list(rep.doubling_residuals)
        worst = max(residuals, default=None)
        if worst is None or not worst < tol:
            problems.append(f"{where}: worst residual {worst} not below {tol}")
    return all(rep.holds for rep in reports), problems


SWEEPS = {
    "exact_sweep": (_exact_item, _validate_exact),
    "torsion_sweep": (_torsion_item, _validate_torsion),
}


def _sweep(ellaw, workload, items):
    """Runs the items; returns per item its span, outputs and error."""
    run_item = SWEEPS[workload][0]
    timed = []
    for item in items:
        start = time.perf_counter()
        try:
            outputs, error = run_item(ellaw, item), None
        except Exception as exc:  # noqa: BLE001 - an item that raises is a failed item
            outputs, error = None, f"{type(exc).__name__}: {exc}"
        timed.append((start, time.perf_counter(), outputs, error))
    return timed


def _sweep_results(hesse, workload, items, timed, probe):
    validate = SWEEPS[workload][1]
    results = []
    for item, (start, end, outputs, error) in zip(items, timed):
        if error is None:
            status, problems = _verdict(*validate(hesse, outputs))
        else:
            status, problems = "fail", [error]
        results.append({
            "id": item["lambda"],
            "status": status,
            "ms": probe.seconds(start, end) * 1e3,
            "raw_ms": (end - start) * 1e3,
            "problems": problems,
        })
    return results


def main():
    probe = SpeedProbe()
    probe.start()
    job = json.load(sys.stdin)
    from hesse_lab import ellaw, harness, hesse

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer().install()
    hesse.hesse_data()
    harness.registry()
    ready = time.perf_counter()
    probe.probe()
    setup = {"setup_s": probe.seconds(T0, ready), "raw": {"setup_s": ready - T0}}
    if job["workload"] == "setup":
        probe.stop()
        print(json.dumps(setup))
        return

    wall0, cpu0 = time.perf_counter(), time.process_time()
    if job["workload"] == "check_all":
        results = _check_all(harness)
    else:
        timed = _sweep(ellaw, job["workload"], job["items"])
    wall1, cpu_s = time.perf_counter(), time.process_time() - cpu0
    probe.probe()
    probe.stop()
    if job["workload"] != "check_all":
        results = _sweep_results(hesse, job["workload"], job["items"], timed, probe)

    out = {
        **setup,
        "wall_s": probe.seconds(wall0, wall1),
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "results": results,
    }
    out["raw"]["wall_s"] = wall1 - wall0
    if tracer is not None:
        out["spans"] = tracer.rows()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
