// Package core implements the paper's primary contribution: the
// game-theory-based power scheduling framework between a smart grid
// and online electric vehicles (OLEVs) drawing power from roadway
// charging sections.
//
// The pieces map onto the paper's Section IV as follows:
//
//   - CostFunction and its implementations are V(·), A(·) and
//     Z(·) = V(·) + A(· − ηP_line) from Eq. (6)–(7);
//   - Satisfaction is U_n(·), the strictly increasing, strictly
//     concave satisfaction of an OLEV;
//   - Payment and PaymentFunction are ξ_n (Eq. 9) and Ψ_n (Eq. 16).
//     PaymentFunction is the one best-response kernel: its Fill is
//     Lemma IV.1, the unique minimum-cost split
//     p̂_n,c = [λ* − P_−n,c]^+ of an OLEV's total request across
//     sections, and its BestResponse is Lemma IV.3, the
//     utility-maximizing total request given the announced payment
//     function. WaterFill, WaterFillBisect and PerDrawWaterFill are
//     the allocating reference forms of Lemma IV.1 the tests check the
//     kernel against;
//   - Game runs the asynchronous best-response iteration of
//     Section IV-D and exposes the social-welfare potential whose
//     monotone increase is the substance of Theorem IV.1.
//
// Everything operates on power values expressed in kilowatts and costs
// expressed in dollars per hour, so "unit payment" divides to $/kWh
// (×1000 = the paper's $/MWh axis).
package core
