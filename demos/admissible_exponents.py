"""Which exponents alpha survive the weakened spread axiom?

For each lateral-distance ratio c the value function v(alpha, c) changes
sign at an upper bound above 1 and, for c < 2, at a lower bound below 1.
The admissible interval widens as c grows and always contains alpha = 1,
the exponent singled out by the full axiom system.  Off alpha = 1 the
unweakened axiom fails at a witness (z, c) constructed in closed form:
z = 2 / (1 + alpha) and the c that keeps half of f(z, alpha, 1).
"""

from netpolar import admissible_interval, lemma1_witness


def main() -> None:
    print(" c     alpha_lower  alpha_upper")
    for c in (1.05, 1.1, 1.3, 1.5, 1.8, 2.0):
        iv = admissible_interval(c)
        lower = "  none " if iv.lower is None else f"{iv.lower:7.4f}"
        print(f"{c:4.2f}   {lower}      {iv.upper:7.4f}")
    print()
    print("away from alpha = 1 the unweakened axiom always fails somewhere:")
    for alpha in (0.5, 1.5):
        z, c = lemma1_witness(alpha)
        print(f"  alpha = {alpha}: violation at mass ratio z = {z:.4f}, "
              f"spread ratio c = {c:.4f}")


if __name__ == "__main__":
    main()
