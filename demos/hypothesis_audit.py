"""Audit every structural hypothesis behind the solvability theory, one by one.

The continuation code is only trustworthy when the underlying problem is
well posed.  This demo runs the full battery on a Mooney-Rivlin material and
a centered box domain:

  1. frame indifference of the stored energy (randomized rotations),
  2. a stress-free reference state (the pressure gauge),
  3. strong ellipticity and the boundary-system determinant at the identity,
  4. star-shapedness of the domain with respect to an interior point,
  5. the identity as a global minimizer over random unimodular states,
  6. quasiconvexity over a closed-form volume-preserving test map,
  7. uniqueness of the unloaded equilibrium from perturbed Newton starts.

Run with:  python3 demos/hypothesis_audit.py
"""

import numpy as np

from elastobranch import (MooneyRivlin, audit_state,
                          build_box_mesh, global_min_probe,
                          quasiconvexity_probe, star_shape_check,
                          uniqueness_probe, verify_objectivity)
from elastobranch.tensor import EYE3


def main():
    material = MooneyRivlin(c1=0.5, c2=0.125)
    print("material: %s (c1=%.3f, c2=%.3f)"
          % (material.model_id, material.c1, material.c2))
    print()

    rep = verify_objectivity(material, trials=200,
                             rng=np.random.default_rng(7))
    print("1. objectivity: max |W(RF) - W(F)| = %.2e over %d trials -> %s"
          % (rep.max_deviation, rep.trials, "ok" if rep.passed else "FAILED"))

    s0 = np.abs(material.stress(EYE3)).max()
    print("2. reference stress: max |S(I)| = %.2e (gauge k = %.3f)"
          % (s0, material.k))

    audit = audit_state(material.elasticity(EYE3), EYE3, n_dirs=1024)
    print("3. ellipticity at identity: SE margin = %.6f, min |ADN det| = %.6f"
          % (audit.se_margin, audit.adn_min_abs))

    mesh = build_box_mesh((1.0, 1.0, 1.0), (4, 4, 4), center_at_origin=True)
    star = star_shape_check(mesh, (0.0, 0.0, 0.0))
    print("4. star-shapedness: min facet value = %.4f -> %s"
          % (star.min_value, "ok" if star.passed else "FAILED"))

    gm = global_min_probe(material, n_samples=5000, seed=3)
    print("5. global minimum: min W over %d unimodular samples = %.4e -> %s"
          % (gm.n_samples, gm.min_value, "ok" if gm.passed else "FAILED"))

    qc = quasiconvexity_probe(material, amplitude=0.06)
    print("6. quasiconvexity: excess energy = %.4e (volume defect %.1e) -> %s"
          % (qc.integral, qc.max_det_defect, "ok" if qc.passed else "FAILED"))

    uq = uniqueness_probe(material, build_box_mesh((1.0, 1.0, 1.0), (2, 2, 2)),
                          n_starts=20, start_radius=0.05, seed=0)
    print("7. uniqueness at zero load: %d/%d starts returned to the reference "
          "state (max |u| = %.1e) -> %s"
          % (uq.n_converged, len(uq.solution_norms) + uq.n_failed, uq.max_norm,
             "ok" if uq.passed else "FAILED"))
    print("   note: %s" % uq.note)


if __name__ == "__main__":
    main()
