"""Bipolar distributions as the extremes of polarization at alpha = 1.

On any fixed graph, splitting all mass across one diameter pair maximizes
P_1.  An exhaustive simplex grid certifies this on a small example.  Off
alpha = 1, distributions that beat the bipolar split on the near-equilateral
three-node family are constructed in closed form; they exist exactly for
alpha outside [ALPHA_STAR, 2], ALPHA_STAR = ln 3 / ln(3/2) - 2 = 0.7095...
"""

from netpolar import counterexample_search, validate_network, verify_bipolar_max


def main() -> None:
    net = validate_network(
        [("left", 2.0), ("center", 5.0), ("right", 1.0)],
        [("left", "center", 1.0), ("center", "right", 1.0), ("left", "right", 2.0)],
    )
    report = verify_bipolar_max(net, grid_step=1.0 / 32.0)
    print(f"three-node path, grid step 1/32:")
    print(f"  bipolar value {report.bipolar_value:.6f}, "
          f"best non-bipolar grid value {report.best_value:.6f}")
    print(f"  bipolar split is maximal: {report.is_bipolar_max}")
    print()
    for alpha in (0.5, 1.5):
        witness = counterexample_search(alpha)
        if witness is None:
            print(f"alpha = {alpha}: no distribution on the family beats the bipolar split")
        else:
            print(f"alpha = {alpha}: masses {[round(m, 4) for m in witness['masses']]} "
                  f"reach {witness['value']:.6f} > bipolar {witness['bipolar_value']:.6f} "
                  f"at eps = {witness['eps']:g}")


if __name__ == "__main__":
    main()
