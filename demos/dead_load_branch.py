"""Trace an inhomogeneous dead-load branch and push it until elements invert.

A spatially ramped dead load bends the cube into a genuinely inhomogeneous
state, so all the machinery earns its keep: the Newton corrector, the
ellipticity audits at every quadrature point, the injectivity check
(min det F), and the incompressibility defect of the discrete solution.

The second half of the demo raises the load scale fifty-fold and follows
the branch until it loses injectivity: min det F falls toward zero, the
Jacobian's determinant sign flips on the way, and the tracer ends with an
'inverted' status naming the offending element rather than raising out of
the loop.

Run with:  python3 demos/dead_load_branch.py
"""

import numpy as np

from elastobranch import (ContinuationSettings, Discretization, LoadProgram,
                          NeoHookean, build_box_mesh, parity_tracker,
                          trace_branch)


def ramped_dead_load(scale):
    # constant pull along x, modulated linearly in y so pressure cannot absorb it
    return LoadProgram(b_family='dead', b_scale=scale,
                       b_direction=np.array([1.0, 0.0, 0.0]),
                       b_ramp=np.array([0.0, 2.0, 0.0]))


def main():
    disc = Discretization(build_box_mesh((1.0, 1.0, 1.0), (4, 4, 4)))
    material = NeoHookean(mu=1.0)

    print("== moderate load, arclength continuation to lambda = 0.5 ==")
    settings = ContinuationSettings(lam_target=0.5, ds0=0.05, ds_max=0.2)
    trace = trace_branch(ramped_dead_load(3.0), settings, material, disc)
    print("  lambda      ds    iters   max|u|     min det F   det defect")
    for rec in trace.records:
        print("  %6.3f  %6.3f   %3d    %8.2e   %10.6f   %9.2e"
              % (rec.lam, rec.ds, rec.newton_iters, rec.norm_u_inf,
                 rec.min_detF, rec.max_det_dev))
    print("status: %s (%s)" % (trace.status, trace.detail))
    print()

    print("== fifty times the load: the branch must end in inversion ==")
    settings = ContinuationSettings(lam_target=50.0, ds0=0.1, ds_min=1e-3,
                                    ds_max=4.0, newton_max_iter=8)
    trace = trace_branch(ramped_dead_load(50.0), settings, material, disc)
    print("accepted records: %d" % len(trace.records))
    print("  lambda       ds      iters   min det F   det sign")
    for rec in trace.records[-5:]:
        print("  %7.4f   %8.2e   %3d    %9.4f   %+d"
              % (rec.lam, rec.ds, rec.newton_iters, rec.min_detF,
                 rec.jac_det_sign))
    for a, b in parity_tracker(trace.records):
        print("parity event: det sign flips in lambda (%.4f, %.4f)" % (a, b))
    print("status: %s" % trace.status)
    print("detail: %s" % trace.detail)


if __name__ == "__main__":
    main()
